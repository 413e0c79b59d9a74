//! Regression losses (§IV-B7): mean absolute error — the paper's pick,
//! "the MAE loss function always outperformed the MSE loss" — and mean
//! squared error as the ablation baseline.

/// Loss function selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// Mean absolute error (eqn. 3) — PredTOP's choice.
    Mae,
    /// Mean squared error — the ablation alternative.
    Mse,
}

impl Loss {
    /// Per-sample loss value.
    pub fn value(self, pred: f32, target: f32) -> f32 {
        let d = pred - target;
        match self {
            Loss::Mae => d.abs(),
            Loss::Mse => d * d,
        }
    }

    /// Per-sample gradient `∂loss/∂pred` (the scalar seeded into the
    /// tape's backward pass).
    pub fn grad(self, pred: f32, target: f32) -> f32 {
        let d = pred - target;
        match self {
            Loss::Mae => {
                if d > 0.0 {
                    1.0
                } else if d < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            Loss::Mse => 2.0 * d,
        }
    }

    /// Mean loss over paired slices.
    ///
    /// # Panics
    /// Panics if the slices differ in length or are empty.
    pub fn mean(self, preds: &[f32], targets: &[f32]) -> f32 {
        assert_eq!(preds.len(), targets.len());
        assert!(!preds.is_empty(), "empty batch");
        preds
            .iter()
            .zip(targets)
            .map(|(&p, &t)| self.value(p, t))
            .sum::<f32>()
            / preds.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn values() {
        assert_eq!(Loss::Mae.value(3.0, 1.0), 2.0);
        assert_eq!(Loss::Mae.value(1.0, 3.0), 2.0);
        assert_eq!(Loss::Mse.value(3.0, 1.0), 4.0);
    }

    #[test]
    fn grads() {
        assert_eq!(Loss::Mae.grad(3.0, 1.0), 1.0);
        assert_eq!(Loss::Mae.grad(1.0, 3.0), -1.0);
        assert_eq!(Loss::Mae.grad(2.0, 2.0), 0.0);
        assert_eq!(Loss::Mse.grad(3.0, 1.0), 4.0);
    }

    #[test]
    fn mean_eqn3() {
        let preds = [1.0, 2.0, 3.0];
        let targets = [1.5, 2.0, 1.0];
        assert!((Loss::Mae.mean(&preds, &targets) - (0.5 + 0.0 + 2.0) / 3.0).abs() < 1e-7);
    }

    proptest! {
        #[test]
        fn prop_grad_is_derivative(p in -10.0f32..10.0, t in -10.0f32..10.0) {
            prop_assume!((p - t).abs() > 1e-3);
            let eps = 1e-3f32;
            for loss in [Loss::Mae, Loss::Mse] {
                let num = (loss.value(p + eps, t) - loss.value(p - eps, t)) / (2.0 * eps);
                let ana = loss.grad(p, t);
                // relative tolerance: the f32 central difference loses
                // precision when |p - t| is large
                let tol = 0.05 * ana.abs().max(1.0);
                prop_assert!((num - ana).abs() < tol, "{loss:?}: {num} vs {ana}");
            }
        }

        #[test]
        fn prop_losses_nonnegative_zero_at_target(x in -10.0f32..10.0) {
            for loss in [Loss::Mae, Loss::Mse] {
                prop_assert_eq!(loss.value(x, x), 0.0);
                prop_assert!(loss.value(x, x + 1.0) > 0.0);
            }
        }
    }
}
