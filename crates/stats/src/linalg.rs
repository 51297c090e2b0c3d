//! Dense linear algebra for the workspace's Newton fits: the Poisson
//! regression of the covariate adjustment and the Cox partial likelihood
//! both solve one symmetric positive-definite system per step.

/// Solve the symmetric positive-definite system `A s = g` by Cholesky
/// factorisation `A = L Lᵀ`, a forward solve `L y = g` and a back solve
/// `Lᵀ s = y`. `a` is row-major `p × p`; its lower triangle is
/// overwritten with `L`. Returns `None` when `A` is not positive
/// definite.
pub fn solve_spd(a: &mut [f64], g: &[f64], p: usize) -> Option<Vec<f64>> {
    for j in 0..p {
        let mut diag = a[j * p + j];
        for k in 0..j {
            diag -= a[j * p + k] * a[j * p + k];
        }
        if diag <= 0.0 {
            return None;
        }
        let diag = diag.sqrt();
        a[j * p + j] = diag;
        for i in (j + 1)..p {
            let mut v = a[i * p + j];
            for k in 0..j {
                v -= a[i * p + k] * a[j * p + k];
            }
            a[i * p + j] = v / diag;
        }
    }
    let mut y = vec![0.0; p];
    for i in 0..p {
        let mut v = g[i];
        for k in 0..i {
            v -= a[i * p + k] * y[k];
        }
        y[i] = v / a[i * p + i];
    }
    let mut s = vec![0.0; p];
    for i in (0..p).rev() {
        let mut v = y[i];
        for k in (i + 1)..p {
            v -= a[k * p + i] * s[k];
        }
        s[i] = v / a[i * p + i];
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_a_positive_definite_system_and_rejects_an_indefinite_one() {
        // [[4, 2], [2, 3]] s = [2, 1] has s = [0.5, 0].
        let s = solve_spd(&mut [4.0, 2.0, 2.0, 3.0], &[2.0, 1.0], 2).expect("SPD");
        assert!((s[0] - 0.5).abs() < 1e-15 && s[1].abs() < 1e-15, "{s:?}");
        assert_eq!(solve_spd(&mut [1.0, 2.0, 2.0, 1.0], &[1.0, 1.0], 2), None);
    }
}
