//! Power-law regression `y = α·x^β` for the scaling figures (11–12).
//!
//! Following the paper's note, the model is fitted *numerically in linear
//! space* (minimizing `Σ (α·xᵢ^β − yᵢ)²`), initialized from the analytic
//! log-log solution, and R² is reported in linear space.

/// A fitted power law with its linear-space coefficient of determination.
#[derive(Clone, Copy, Debug)]
pub struct PowerLawFit {
    /// Multiplier α.
    pub alpha: f64,
    /// Exponent β.
    pub beta: f64,
    /// Linear-space R².
    pub r2: f64,
}

/// Fits `y = α·x^β` to the samples.
///
/// # Panics
///
/// Panics if fewer than two samples are provided or any sample is
/// non-positive (power laws need positive data).
pub fn fit_power_law(samples: &[(f64, f64)]) -> PowerLawFit {
    assert!(samples.len() >= 2, "need at least two samples");
    assert!(
        samples.iter().all(|&(x, y)| x > 0.0 && y > 0.0),
        "power-law fit needs positive samples"
    );
    // Log-log least squares for the initial guess.
    let n = samples.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in samples {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    let mut beta = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let mut alpha = ((sy - beta * sx) / n).exp();

    // Gauss–Newton refinement in linear space.
    for _ in 0..200 {
        // Residuals r_i = α x^β − y; Jacobian wrt (α, β).
        let (mut jtj00, mut jtj01, mut jtj11) = (0.0, 0.0, 0.0);
        let (mut jtr0, mut jtr1) = (0.0, 0.0);
        for &(x, y) in samples {
            let xb = x.powf(beta);
            let r = alpha * xb - y;
            let da = xb;
            let db = alpha * xb * x.ln();
            jtj00 += da * da;
            jtj01 += da * db;
            jtj11 += db * db;
            jtr0 += da * r;
            jtr1 += db * r;
        }
        // Solve the 2×2 normal equations with Levenberg damping.
        let lambda = 1e-9 * (jtj00 + jtj11);
        let det = (jtj00 + lambda) * (jtj11 + lambda) - jtj01 * jtj01;
        if det.abs() < 1e-30 {
            break;
        }
        let d_alpha = (-(jtr0) * (jtj11 + lambda) + jtr1 * jtj01) / det;
        let d_beta = (-(jtr1) * (jtj00 + lambda) + jtr0 * jtj01) / det;
        alpha += d_alpha;
        beta += d_beta;
        if alpha <= 0.0 {
            alpha = 1e-12;
        }
        if d_alpha.abs() < 1e-14 && d_beta.abs() < 1e-14 {
            break;
        }
    }

    // Linear-space R².
    let mean_y = samples.iter().map(|&(_, y)| y).sum::<f64>() / n;
    let ss_tot: f64 = samples.iter().map(|&(_, y)| (y - mean_y).powi(2)).sum();
    let ss_res: f64 = samples
        .iter()
        .map(|&(x, y)| (y - alpha * x.powf(beta)).powi(2))
        .sum();
    let r2 = if ss_tot > 0.0 { 1.0 - ss_res / ss_tot } else { 1.0 };
    PowerLawFit { alpha, beta, r2 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_power_law() {
        let samples: Vec<(f64, f64)> = (1..20)
            .map(|i| {
                let x = i as f64 * 100.0;
                (x, 0.0007 * x.powf(1.1))
            })
            .collect();
        let fit = fit_power_law(&samples);
        assert!((fit.beta - 1.1).abs() < 1e-6, "beta {}", fit.beta);
        assert!((fit.alpha - 0.0007).abs() < 1e-6, "alpha {}", fit.alpha);
        assert!(fit.r2 > 0.999999);
    }

    #[test]
    fn fits_noisy_data() {
        // Deterministic pseudo-noise.
        let samples: Vec<(f64, f64)> = (1..30)
            .map(|i| {
                let x = i as f64 * 50.0;
                let noise = 1.0 + 0.05 * ((i * 2654435761u64 % 100) as f64 / 100.0 - 0.5);
                (x, 0.002 * x.powf(0.9) * noise)
            })
            .collect();
        let fit = fit_power_law(&samples);
        assert!((fit.beta - 0.9).abs() < 0.05, "beta {}", fit.beta);
        assert!(fit.r2 > 0.97, "r2 {}", fit.r2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive() {
        fit_power_law(&[(1.0, 0.0), (2.0, 1.0)]);
    }
}
