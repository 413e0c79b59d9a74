//! Chrome-trace export of pipeline executions.
//!
//! Writes a simulated pipeline or an explicit schedule in the
//! `chrome://tracing` / Perfetto JSON array format: one complete event
//! (`"ph": "X"`) per executed slot, stages as thread lanes. Load the
//! file in `chrome://tracing` or <https://ui.perfetto.dev> to see the
//! Fig. 6 picture interactively.

use std::fmt::Write as _;

use predtop_parallel::schedule::{Schedule, Slot, SlotSpan};

use crate::pipeline::PipelineSim;

/// One trace event in Chrome's JSON format.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (e.g. `"F3"` / `"B3"` / `"mb4"`).
    pub name: String,
    /// Category (`"forward"` / `"backward"` / `"microbatch"`).
    pub cat: &'static str,
    /// Phase: always `"X"` (complete event).
    pub ph: &'static str,
    /// Start timestamp in microseconds.
    pub ts: u64,
    /// Duration in microseconds.
    pub dur: u64,
    /// Process id (constant 1).
    pub pid: u32,
    /// Thread lane = pipeline stage.
    pub tid: u32,
}

fn event(name: String, cat: &'static str, start_s: f64, finish_s: f64, stage: usize) -> TraceEvent {
    TraceEvent {
        name,
        cat,
        ph: "X",
        ts: (start_s * 1e6).round() as u64,
        dur: (((finish_s - start_s) * 1e6).round() as u64).max(1),
        pid: 1,
        tid: stage as u32,
    }
}

/// Trace of an executed [`Schedule`] (per-slot spans from
/// [`Schedule::simulate`]).
pub fn schedule_trace(schedule: &Schedule, spans: &[Vec<SlotSpan>]) -> Vec<TraceEvent> {
    assert_eq!(spans.len(), schedule.num_stages());
    let mut out = Vec::new();
    for (stage, row) in spans.iter().enumerate() {
        for sp in row {
            let (name, cat) = match sp.slot {
                Slot::Forward(i) => (format!("F{i}"), "forward"),
                Slot::Backward(i) => (format!("B{i}"), "backward"),
            };
            out.push(event(name, cat, sp.start, sp.finish, stage));
        }
    }
    out
}

/// Trace of a [`PipelineSim`] run (per-micro-batch blocks; the sim
/// stores finish times, durations come from `stage_times`).
pub fn pipeline_trace(sim: &PipelineSim, stage_times: &[Vec<f64>]) -> Vec<TraceEvent> {
    assert_eq!(sim.finish.len(), stage_times.len());
    let mut out = Vec::new();
    for (stage, (finishes, times)) in sim.finish.iter().zip(stage_times).enumerate() {
        for (mb, (&finish, &dur)) in finishes.iter().zip(times).enumerate() {
            out.push(event(
                format!("mb{mb}"),
                "microbatch",
                finish - dur,
                finish,
                stage,
            ));
        }
    }
    out
}

/// Render events as a Chrome-trace JSON array, one event per line.
///
/// Strings are written without escaping: the names and categories this
/// module produces (`F{i}`, `B{i}`, `mb{i}`, `forward`, `backward`,
/// `microbatch`) are plain ASCII identifiers.
pub fn to_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("[\n");
    for (i, e) in events.iter().enumerate() {
        let sep = if i + 1 < events.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"{}\", \"ts\": {}, \"dur\": {}, \
             \"pid\": {}, \"tid\": {}}}{sep}",
            e.name, e.cat, e.ph, e.ts, e.dur, e.pid, e.tid
        );
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::simulate_uniform;
    use predtop_parallel::schedule::one_f_one_b;

    #[test]
    fn schedule_trace_has_all_slots_in_lanes() {
        let sched = one_f_one_b(3, 4);
        let (spans, makespan) = sched.simulate(&[1.0; 3], &[2.0; 3]);
        let events = schedule_trace(&sched, &spans);
        assert_eq!(events.len(), 3 * 2 * 4);
        // lanes 0..3, categories split evenly
        assert!(events
            .iter()
            .all(|e| e.tid < 3 && e.pid == 1 && e.ph == "X"));
        assert_eq!(events.iter().filter(|e| e.cat == "forward").count(), 12);
        // nothing extends past the makespan
        let end_us = (makespan * 1e6).round() as u64;
        assert!(events.iter().all(|e| e.ts + e.dur <= end_us + 1));
        // within one lane events do not overlap
        for lane in 0..3u32 {
            let mut lane_events: Vec<_> = events.iter().filter(|e| e.tid == lane).collect();
            lane_events.sort_by_key(|e| e.ts);
            for w in lane_events.windows(2) {
                assert!(w[0].ts + w[0].dur <= w[1].ts, "overlap in lane {lane}");
            }
        }
    }

    #[test]
    fn pipeline_trace_matches_sim() {
        let times = vec![vec![1.0, 1.5], vec![2.0, 2.0]];
        let sim = simulate_uniform(&[0.0], 1, &[]); // placeholder shape check below
        let _ = sim;
        let sim = crate::pipeline::simulate_pipeline(&times, &[0.25]);
        let events = pipeline_trace(&sim, &times);
        assert_eq!(events.len(), 4);
        // stage 0 mb0 starts at 0
        let first = events
            .iter()
            .find(|e| e.tid == 0 && e.name == "mb0")
            .unwrap();
        assert_eq!(first.ts, 0);
        assert_eq!(first.dur, 1_000_000);
    }

    #[test]
    fn json_is_an_array_of_every_event() {
        let sched = one_f_one_b(2, 2);
        let (spans, _) = sched.simulate(&[1.0; 2], &[1.0; 2]);
        let events = schedule_trace(&sched, &spans);
        let json = to_json(&events);
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), events.len() + 2, "{json}");
        assert_eq!((lines[0], lines[lines.len() - 1]), ("[", "]"));
        assert_eq!(
            lines[1],
            "  {\"name\": \"F0\", \"cat\": \"forward\", \"ph\": \"X\", \"ts\": 0, \
             \"dur\": 1000000, \"pid\": 1, \"tid\": 0},"
        );
        // commas separate events; the last one has none
        assert!(lines[1..lines.len() - 2].iter().all(|l| l.ends_with("},")));
        assert!(lines[lines.len() - 2].ends_with('}'));
        assert_eq!(to_json(&[]), "[\n]\n");
    }
}
