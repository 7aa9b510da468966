//! The sectional coagulation model: physics shared by the reference and
//! distributed implementations.

/// Integration step for the explicit Euler update.
pub const DT: f32 = 1e-3;

/// Model parameters and state.
#[derive(Clone)]
pub struct NanoModel {
    /// Number of size sections (paper setup: `K = 3240`, making the
    /// coefficient matrix `K²·4 B ≈ 42 MB`).
    pub sections: usize,
    /// Base collision kernel, row-major `K × K` (constant part).
    pub coeff_base: Vec<f32>,
    /// Section concentrations.
    pub n: Vec<f32>,
}

impl NanoModel {
    /// Build the model: a smooth synthetic Brownian-like collision kernel
    /// `β(i,j) ~ (i+j+2)/(i·j+1)` scaled into f32 range, and an initial
    /// concentration spectrum concentrated in the smallest sections.
    pub fn new(sections: usize) -> Self {
        let mut coeff_base = vec![0.0f32; sections * sections];
        for i in 0..sections {
            for j in 0..sections {
                coeff_base[i * sections + j] =
                    ((i + j + 2) as f32) / ((i * j + 1) as f32).sqrt() * 1e-3;
            }
        }
        let n = (0..sections)
            .map(|i| 1.0f32 / ((i + 1) as f32 * (i + 1) as f32))
            .collect();
        NanoModel {
            sections,
            coeff_base,
            n,
        }
    }

    /// Per-step temperature scaling of the collision kernel — the reason
    /// the coefficients must be redistributed every step, as in the
    /// paper's application.
    pub fn theta(step: usize) -> f32 {
        1.0 + 0.01 * (step as f32 + 1.0)
    }

    /// The scaled coefficient rows `[r0, r1)` for `step`, row-major.
    pub fn scaled_rows(&self, step: usize, r0: usize, r1: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; (r1 - r0) * self.sections];
        self.scale_rows_into(step, r0, r1, &mut out);
        out
    }

    /// [`NanoModel::scaled_rows`] written into `out`, which must hold
    /// exactly `(r1 - r0) · sections` values — lets a caller scale
    /// straight into its staging buffer.
    pub fn scale_rows_into(&self, step: usize, r0: usize, r1: usize, out: &mut [f32]) {
        let th = Self::theta(step);
        let rows = &self.coeff_base[r0 * self.sections..r1 * self.sections];
        assert_eq!(out.len(), rows.len(), "output must hold the scaled rows");
        for (o, &c) in out.iter_mut().zip(rows) {
            *o = c * th;
        }
    }

    /// Host-side nucleation/condensation: a cheap serial update of the
    /// smallest sections (stands in for the "other phenomena" the paper's
    /// host thread computes).
    pub fn host_phase(&mut self, step: usize) {
        let th = Self::theta(step);
        let k = self.sections.min(16);
        for i in 0..k {
            // nucleation feeds the smallest sections, condensation drains
            // them slightly into the next one.
            let nuc = 1e-4 / (i + 1) as f32 * th;
            self.n[i] += nuc;
            if i + 1 < self.sections {
                let cond = self.n[i] * 1e-3;
                self.n[i] -= cond;
                self.n[i + 1] += cond * 0.5;
            }
        }
    }

    /// Apply a computed coagulation rate vector.
    pub fn integrate(&mut self, dn: &[f32]) {
        assert_eq!(dn.len(), self.sections);
        for (n, d) in self.n.iter_mut().zip(dn) {
            *n = (*n + DT * d).max(0.0);
        }
    }
}

/// Coagulation rates for rows `[r0, r1)`: the discrete Smoluchowski
/// equation with kernel rows `coeff` (already temperature-scaled, local
/// row-major of width `n.len()`):
///
/// `dN_i = ½ Σ_{j≤i} β_{i,j} N_j N_{i−j}  −  N_i Σ_j β_{i,j} N_j`
///
/// This loop (gain triangular + loss full row) is the `O(K²)` kernel the
/// devices execute; identical code runs in the reference, so distributed
/// results are bitwise comparable.
pub fn coagulation_step(coeff: &[f32], n: &[f32], r0: usize, r1: usize, out: &mut [f32]) {
    let k = n.len();
    assert_eq!(coeff.len(), (r1 - r0) * k, "coefficient rows shape");
    assert_eq!(out.len(), r1 - r0);
    for i in r0..r1 {
        let row = &coeff[(i - r0) * k..(i - r0 + 1) * k];
        let mut gain = 0.0f32;
        for j in 0..=i {
            gain += row[j] * n[j] * n[i - j];
        }
        let mut loss = 0.0f32;
        for j in 0..k {
            loss += row[j] * n[j];
        }
        out[i - r0] = 0.5 * gain - n[i] * loss;
    }
}

/// Number of pair interactions evaluated for rows `[r0, r1)` (gain
/// triangle + full loss rows) — drives the device-time model.
pub fn pair_count(k: usize, r0: usize, r1: usize) -> usize {
    let gain: usize = (r0..r1).map(|i| i + 1).sum();
    gain + (r1 - r0) * k
}

/// Run the whole simulation single-threaded (the validation oracle).
/// Returns the final concentration vector.
pub fn reference_simulation(sections: usize, steps: usize) -> Vec<f32> {
    let mut m = NanoModel::new(sections);
    let mut dn = vec![0.0f32; sections];
    for step in 0..steps {
        m.host_phase(step);
        let rows = m.scaled_rows(step, 0, sections);
        coagulation_step(&rows, &m.n, 0, sections, &mut dn);
        m.integrate(&dn);
    }
    m.n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_initialization_is_positive_and_decreasing() {
        let m = NanoModel::new(64);
        assert!(m.n.iter().all(|&x| x > 0.0));
        assert!(m.n[0] > m.n[10]);
        assert_eq!(m.coeff_base.len(), 64 * 64);
    }

    #[test]
    fn theta_scales_rows() {
        let m = NanoModel::new(8);
        let r = m.scaled_rows(4, 2, 3);
        let expect: Vec<f32> = m.coeff_base[16..24]
            .iter()
            .map(|&c| c * NanoModel::theta(4))
            .collect();
        assert_eq!(r, expect);
    }

    #[test]
    fn coagulation_conserves_sign_structure() {
        let m = NanoModel::new(32);
        let rows = m.scaled_rows(0, 0, 32);
        let mut dn = vec![0.0f32; 32];
        coagulation_step(&rows, &m.n, 0, 32, &mut dn);
        // Smallest section only loses (no gain pairs besides 0+0).
        assert!(dn[31].abs() < dn[0].abs() * 1e3, "rates finite");
        assert!(dn.iter().any(|&d| d < 0.0), "loss exists");
    }

    #[test]
    fn block_decomposition_matches_full_run() {
        let m = NanoModel::new(48);
        let rows_full = m.scaled_rows(1, 0, 48);
        let mut full = vec![0.0f32; 48];
        coagulation_step(&rows_full, &m.n, 0, 48, &mut full);
        let mut blocked = vec![0.0f32; 48];
        for (r0, r1) in [(0usize, 16usize), (16, 40), (40, 48)] {
            let rows = m.scaled_rows(1, r0, r1);
            coagulation_step(&rows, &m.n, r0, r1, &mut blocked[r0..r1]);
        }
        assert_eq!(full, blocked, "row blocking is exact");
    }

    #[test]
    fn pair_count_totals() {
        let k = 10;
        let total = pair_count(k, 0, k);
        assert_eq!(total, (1..=k).sum::<usize>() + k * k);
        let split = pair_count(k, 0, 4) + pair_count(k, 4, 10);
        assert_eq!(split, total);
    }

    #[test]
    fn reference_simulation_is_deterministic_and_finite() {
        let a = reference_simulation(64, 5);
        let b = reference_simulation(64, 5);
        assert_eq!(a, b);
        assert!(a.iter().all(|x| x.is_finite() && *x >= 0.0));
    }
}
