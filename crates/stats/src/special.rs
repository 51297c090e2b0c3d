//! Special functions.
//!
//! Implementations follow the classical numerical recipes: a Lanczos
//! approximation for the log-gamma function, continued fractions for the
//! regularised incomplete beta function, and a series/continued-fraction pair
//! for the regularised incomplete gamma functions. Accuracy targets are
//! ~1e-12 relative error over the parameter ranges the models use, which the
//! unit tests check against independently computed reference values.

/// Lanczos coefficients (g = 7, n = 9), standard double-precision set.
const LANCZOS_G: f64 = 7.0;
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the reflection formula for `x < 0.5` and the Lanczos approximation
/// otherwise. Panics are avoided: non-finite or non-positive inputs where the
/// gamma function has poles return `f64::INFINITY` (Γ has poles at
/// non-positive integers; between poles the sign alternates, and we return the
/// log of the absolute value there).
pub fn ln_gamma(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx)
        let s = (std::f64::consts::PI * x).sin();
        if s == 0.0 {
            return f64::INFINITY; // pole at non-positive integers
        }
        return std::f64::consts::PI.ln() - s.abs().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    LN_SQRT_2PI + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The gamma function `Γ(x)`.
pub fn gamma(x: f64) -> f64 {
    if x < 0.5 {
        let s = (std::f64::consts::PI * x).sin();
        if s == 0.0 {
            return f64::NAN;
        }
        std::f64::consts::PI / (s * gamma(1.0 - x))
    } else {
        ln_gamma(x).exp()
    }
}

/// Digamma function `ψ(x) = d/dx ln Γ(x)` for `x > 0`.
///
/// Recurrence to push the argument above 6, then the asymptotic expansion.
pub fn digamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "digamma domain is x > 0, got {x}");
    let mut x = x;
    let mut result = 0.0;
    while x < 10.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    // ψ(x) ≈ ln x − 1/(2x) − Σ B_{2n} / (2n x^{2n})
    result + x.ln() - 0.5 * inv
        - inv2
            * (1.0 / 12.0
                - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0))))
}

/// Trigamma function `ψ′(x)` for `x > 0`.
pub fn trigamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "trigamma domain is x > 0, got {x}");
    let mut x = x;
    let mut result = 0.0;
    while x < 10.0 {
        result += 1.0 / (x * x);
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result
        + inv * (1.0 + inv * (0.5 + inv * (1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 * (1.0 / 42.0 - inv2 / 30.0)))))
}

/// `ln B(a, b) = ln Γ(a) + ln Γ(b) − ln Γ(a+b)`.
pub fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// Regularised incomplete beta function `I_x(a, b)` for `a, b > 0`,
/// `x ∈ [0, 1]` — the CDF of the Beta(a, b) distribution.
///
/// Continued-fraction evaluation (Lentz's algorithm) with the symmetry
/// transformation for numerical stability.
pub fn betainc_reg(a: f64, b: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0 && b > 0.0, "betainc_reg needs a,b > 0");
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = a * x.ln() + b * (1.0 - x).ln() - ln_beta(a, b);
    // Use the continued fraction directly when x < (a+1)/(a+b+2), else the
    // symmetric complement, which converges faster.
    if x <= (a + 1.0) / (a + b + 2.0) {
        (ln_front.exp() / a) * beta_cf(a, b, x)
    } else {
        1.0 - betainc_reg(b, a, 1.0 - x)
    }
}

/// Continued fraction for the incomplete beta (Numerical Recipes `betacf`).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // even step
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // odd step
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Inverse of the regularised incomplete beta function: returns `x` such that
/// `I_x(a, b) = p`. Bisection refined by Newton steps; used for Beta quantiles
/// and credible intervals.
pub fn betainc_inv(a: f64, b: f64, p: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p));
    if p <= 0.0 {
        return 0.0;
    }
    if p >= 1.0 {
        return 1.0;
    }
    let mut lo = 0.0_f64;
    let mut hi = 1.0_f64;
    let mut x = a / (a + b); // mean as the starting point
    for _ in 0..200 {
        let f = betainc_reg(a, b, x) - p;
        if f.abs() < 1e-14 {
            break;
        }
        if f > 0.0 {
            hi = x;
        } else {
            lo = x;
        }
        // Newton step using the beta pdf as the derivative
        let ln_pdf = (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln() - ln_beta(a, b);
        let deriv = ln_pdf.exp();
        let mut next = x - f / deriv;
        if !(next.is_finite() && next > lo && next < hi) {
            next = 0.5 * (lo + hi); // fall back to bisection
        }
        if (next - x).abs() < 1e-15 {
            x = next;
            break;
        }
        x = next;
    }
    x
}

/// Regularised lower incomplete gamma function `P(a, x) = γ(a,x)/Γ(a)`.
pub fn gammainc_lower_reg(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0, "gammainc needs a > 0");
    if x <= 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        1.0 - gamma_cf(a, x)
    }
}

/// Regularised upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
pub fn gammainc_upper_reg(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0, "gammainc needs a > 0");
    if x <= 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_series(a, x)
    } else {
        gamma_cf(a, x)
    }
}

/// Series expansion for P(a, x), convergent for x < a + 1.
fn gamma_series(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    (sum.ln() + a * x.ln() - x - ln_gamma(a)).exp()
}

/// Continued fraction for Q(a, x), convergent for x ≥ a + 1.
fn gamma_cf(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    (h.ln() + a * x.ln() - x - ln_gamma(a)).exp()
}

/// Complementary error function `erfc(x) = 1 − erf(x)`, computed to preserve
/// accuracy in the tail.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x == 0.0 {
        return 1.0;
    }
    gammainc_upper_reg(0.5, x * x)
}

/// Standard normal CDF Φ(x).
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Inverse standard normal CDF (quantile function), Acklam's algorithm with a
/// Halley refinement step. Accurate to ~1e-13 over (0, 1).
pub fn std_normal_quantile(p: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p));
    if p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }
    // Acklam coefficients
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Size of the memoised integer table below. Counts in the Bernoulli /
/// beta-process likelihoods are failure-years and exposure-years, which stay
/// far below this in any realistic window; larger arguments fall back to the
/// direct evaluation.
const INT_TABLE_LEN: usize = 4096;

fn ln_gamma_int_table() -> &'static [f64] {
    static TABLE: std::sync::OnceLock<Vec<f64>> = std::sync::OnceLock::new();
    // Entries are computed by the same `ln_gamma` the fallback uses, so the
    // memoised path is byte-identical to the direct one.
    TABLE.get_or_init(|| (0..INT_TABLE_LEN).map(|n| ln_gamma(n as f64)).collect())
}

/// Memoised `ln Γ(n)` for integer `n` — the arguments that dominate the
/// count likelihoods. `n = 0` is the pole (`+∞`), matching `ln_gamma(0.0)`.
pub fn ln_gamma_int(n: u64) -> f64 {
    match ln_gamma_int_table().get(n as usize) {
        Some(&v) => v,
        None => ln_gamma(n as f64),
    }
}

/// Memoised `ln n!` = `ln Γ(n + 1)`.
pub fn ln_factorial(n: u64) -> f64 {
    ln_gamma_int(n + 1)
}

/// Numerically stable `ln(exp(a) + exp(b))`.
pub fn log_sum_exp2(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if hi == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    hi + (lo - hi).exp().ln_1p()
}

/// Numerically stable `ln Σ exp(xs)` over a slice.
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if hi == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    hi + xs.iter().map(|x| (x - hi).exp()).sum::<f64>().ln()
}

/// Logistic sigmoid `1 / (1 + exp(−x))`, saturating safely for large |x|.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// Logit `ln(p / (1 − p))` for `p ∈ (0, 1)`.
pub fn logit(p: f64) -> f64 {
    (p / (1.0 - p)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(got: f64, want: f64, tol: f64) {
        let denom = want.abs().max(1.0);
        assert!(
            (got - want).abs() / denom < tol,
            "got {got}, want {want} (tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n−1)!
        let mut fact = 1.0_f64;
        for n in 1..=20u64 {
            assert_close(ln_gamma(n as f64), fact.ln(), 1e-12);
            fact *= n as f64;
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-13);
        // Γ(3/2) = √π / 2
        assert_close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-13,
        );
        // Γ(5/2) = 3√π/4
        assert_close(
            ln_gamma(2.5),
            (3.0 * std::f64::consts::PI.sqrt() / 4.0).ln(),
            1e-13,
        );
    }

    #[test]
    fn ln_gamma_reflection_region() {
        // Γ(0.3) ≈ 2.991568987687590
        assert_close(ln_gamma(0.3), 2.991_568_987_687_59_f64.ln(), 1e-12);
        // Γ(0.1) ≈ 9.513507698668732
        assert_close(ln_gamma(0.1), 9.513_507_698_668_732_f64.ln(), 1e-12);
    }

    #[test]
    fn gamma_small_values() {
        assert_close(gamma(5.0), 24.0, 1e-12);
        assert_close(gamma(0.5), std::f64::consts::PI.sqrt(), 1e-12);
    }

    #[test]
    fn digamma_known_values() {
        const EULER: f64 = 0.577_215_664_901_532_9;
        assert_close(digamma(1.0), -EULER, 1e-12);
        // ψ(2) = 1 − γ
        assert_close(digamma(2.0), 1.0 - EULER, 1e-12);
        // ψ(1/2) = −γ − 2 ln 2
        assert_close(digamma(0.5), -EULER - 2.0 * 2.0_f64.ln(), 1e-12);
    }

    #[test]
    fn digamma_recurrence_property() {
        // ψ(x+1) = ψ(x) + 1/x
        for &x in &[0.3, 1.7, 4.2, 9.9, 25.0] {
            assert_close(digamma(x + 1.0), digamma(x) + 1.0 / x, 1e-12);
        }
    }

    #[test]
    fn trigamma_known_values() {
        let pi2_6 = std::f64::consts::PI.powi(2) / 6.0;
        assert_close(trigamma(1.0), pi2_6, 1e-11);
        // ψ′(1/2) = π²/2
        assert_close(trigamma(0.5), std::f64::consts::PI.powi(2) / 2.0, 1e-11);
    }

    #[test]
    fn trigamma_recurrence_property() {
        for &x in &[0.4, 2.3, 7.7] {
            assert_close(trigamma(x + 1.0), trigamma(x) - 1.0 / (x * x), 1e-11);
        }
    }

    #[test]
    fn ln_beta_symmetry_and_value() {
        assert_close(ln_beta(2.0, 3.0), (1.0_f64 / 12.0).ln(), 1e-12);
        assert_close(ln_beta(4.5, 1.5), ln_beta(1.5, 4.5), 1e-14);
    }

    #[test]
    fn betainc_bounds_and_symmetry() {
        assert_eq!(betainc_reg(2.0, 3.0, 0.0), 0.0);
        assert_eq!(betainc_reg(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 − I_{1−x}(b,a)
        for &(a, b, x) in &[(2.0, 3.0, 0.3), (0.5, 0.5, 0.7), (8.0, 2.0, 0.9)] {
            assert_close(
                betainc_reg(a, b, x),
                1.0 - betainc_reg(b, a, 1.0 - x),
                1e-12,
            );
        }
    }

    #[test]
    fn betainc_uniform_case() {
        // Beta(1,1) is uniform: I_x(1,1) = x
        for &x in &[0.1, 0.25, 0.5, 0.9] {
            assert_close(betainc_reg(1.0, 1.0, x), x, 1e-13);
        }
    }

    #[test]
    fn betainc_reference_values() {
        // I_{0.5}(2, 2) = 0.5 by symmetry
        assert_close(betainc_reg(2.0, 2.0, 0.5), 0.5, 1e-13);
        // I_{0.3}(2, 3): CDF of Beta(2,3) at 0.3 = 6x² −8x³+3x⁴ ... compute:
        // F(x) = x²(6 − 8x + 3x²) for Beta(2,3): at 0.3 → 0.09*(6-2.4+0.27)=0.3483
        assert_close(betainc_reg(2.0, 3.0, 0.3), 0.3483, 1e-10);
    }

    #[test]
    fn betainc_inv_roundtrip() {
        for &(a, b) in &[(2.0, 3.0), (0.5, 0.5), (10.0, 1.0), (1.0, 10.0), (50.0, 50.0)] {
            for &p in &[0.01, 0.1, 0.5, 0.9, 0.99] {
                let x = betainc_inv(a, b, p);
                assert_close(betainc_reg(a, b, x), p, 1e-9);
            }
        }
    }

    #[test]
    fn gammainc_exponential_case() {
        // P(1, x) = 1 − e^{−x}
        for &x in &[0.1, 0.5, 1.0, 3.0, 10.0] {
            assert_close(gammainc_lower_reg(1.0, x), 1.0 - (-x).exp(), 1e-13);
        }
    }

    #[test]
    fn gammainc_complementarity() {
        for &(a, x) in &[(0.5, 0.2), (2.0, 3.5), (9.0, 4.0), (3.0, 12.0)] {
            assert_close(
                gammainc_lower_reg(a, x) + gammainc_upper_reg(a, x),
                1.0,
                1e-13,
            );
        }
    }

    #[test]
    fn gammainc_chi_square_reference() {
        // χ²(k=2) CDF at x: P(1, x/2); at x=2 → 1−e^{−1} ≈ 0.632120558828558
        assert_close(gammainc_lower_reg(1.0, 1.0), 0.632_120_558_828_557_7, 1e-12);
        // P(3, 3) ≈ 0.5768099188731565 (Poisson(3) P[X ≥ 3])
        assert_close(gammainc_lower_reg(3.0, 3.0), 0.576_809_918_873_156_5, 1e-11);
    }

    #[test]
    fn normal_cdf_and_quantile_roundtrip() {
        assert_close(std_normal_cdf(0.0), 0.5, 1e-14);
        assert_close(std_normal_cdf(1.959_963_984_540_054), 0.975, 1e-10);
        for &p in &[1e-6, 0.01, 0.3, 0.5, 0.77, 0.999, 1.0 - 1e-9] {
            let x = std_normal_quantile(p);
            assert_close(std_normal_cdf(x), p, 1e-9);
        }
    }

    #[test]
    fn memoised_integer_tables_match_direct_evaluation() {
        // In-table and fallback ranges must be byte-identical to the direct
        // call — the tables are a cache, not an approximation.
        for n in [0u64, 1, 2, 7, 100, 4095, 4096, 100_000] {
            assert!(
                ln_gamma_int(n).to_bits() == ln_gamma(n as f64).to_bits(),
                "ln_gamma_int({n})"
            );
            assert!(
                ln_factorial(n).to_bits() == ln_gamma(n as f64 + 1.0).to_bits(),
                "ln_factorial({n})"
            );
        }
        assert_eq!(ln_gamma_int(0), f64::INFINITY);
        // Lanczos ln Γ(1) is ~−9e−16, not exactly 0; the table reproduces it.
        assert!(ln_factorial(0).abs() < 1e-15);
    }

    #[test]
    fn log_sum_exp_stability() {
        assert_close(log_sum_exp2(0.0, 0.0), 2.0_f64.ln(), 1e-14);
        // Huge magnitudes must not overflow.
        assert_close(log_sum_exp2(1000.0, 1000.0), 1000.0 + 2.0_f64.ln(), 1e-12);
        assert_close(
            log_sum_exp(&[-1e9, 0.0, -2.0]),
            log_sum_exp2(0.0, -2.0),
            1e-12,
        );
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn sigmoid_logit_inverse() {
        // Positive x capped at 15: beyond that 1−p loses bits to cancellation
        // and the naive logit cannot round-trip to 1e-9.
        for &x in &[-30.0, -2.0, 0.0, 1.5, 15.0] {
            let p = sigmoid(x);
            assert!((0.0..=1.0).contains(&p));
            if p > 0.0 && p < 1.0 {
                assert_close(logit(p), x, 1e-9);
            }
        }
        assert!(sigmoid(-800.0) >= 0.0);
        assert!(sigmoid(800.0) <= 1.0);
    }
}
