//! Negacyclic number-theoretic transform.
//!
//! The NTT maps `Z_q[X]/(X^N + 1)` to `N` pointwise slots so polynomial
//! multiplication becomes elementwise multiplication. We implement the
//! classic decomposition: multiply coefficient `j` by `ψ^j` (a primitive
//! `2N`-th root of unity), run a cyclic size-`N` NTT with `ω = ψ²`, and for
//! the inverse fold `N⁻¹·ψ^{-j}` into the post-scaling table. All twiddles
//! carry Shoup precomputations, so the hot loops avoid 128-bit Barrett
//! reductions.

use bp_math::Modulus;
use bp_par::BpThreadPool;
use std::sync::Arc;

/// Precomputed NTT tables for one NTT-friendly prime and one ring degree.
///
/// Construction fails (panics) if the prime does not support a `2N`-th root
/// of unity, i.e. if `q ≢ 1 (mod 2N)`.
///
/// The table also carries the [`BpThreadPool`] handle that polynomial
/// operations over this prime should fan out on: every `ResiduePoly` holds
/// an `Arc<NttTable>`, so the table is the natural carrier that propagates
/// the executor from `PrimePool` down to every residue loop.
#[derive(Debug, Clone)]
pub struct NttTable {
    modulus: Modulus,
    n: usize,
    log_n: u32,
    threads: Arc<BpThreadPool>,
    /// `ψ^j` for `j in 0..n`, with Shoup companions.
    psi_pows: Vec<(u64, u64)>,
    /// `N⁻¹ · ψ^{-j}` for `j in 0..n`, with Shoup companions.
    inv_psi_pows_n: Vec<(u64, u64)>,
    /// `ω^j` for `j in 0..n/2`, with Shoup companions.
    omega_pows: Vec<(u64, u64)>,
    /// `ω^{-j}` for `j in 0..n/2`, with Shoup companions.
    inv_omega_pows: Vec<(u64, u64)>,
}

impl NttTable {
    /// Builds tables for modulus `q` and ring degree `n` (a power of two),
    /// attached to the process-wide default thread pool.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two, or if `q` is not an NTT-friendly
    /// prime for this `n` (`q ≡ 1 mod 2n` and prime).
    pub fn new(q: u64, n: usize) -> Self {
        Self::with_threads(q, n, BpThreadPool::global())
    }

    /// Builds tables for modulus `q` and ring degree `n`, attached to an
    /// explicit executor handle.
    ///
    /// # Panics
    /// Same conditions as [`NttTable::new`].
    pub fn with_threads(q: u64, n: usize, threads: Arc<BpThreadPool>) -> Self {
        assert!(n.is_power_of_two(), "ring degree must be a power of two");
        assert!(n >= 2, "ring degree must be at least 2");
        let two_n = 2 * n as u64;
        assert!(
            q % two_n == 1,
            "modulus {q} is not NTT-friendly for N = {n} (q mod 2N != 1)"
        );
        assert!(bp_math::primes::is_prime(q), "modulus {q} must be prime");

        let m = Modulus::new(q);
        let psi = find_primitive_2n_root(&m, n as u64);
        let inv_psi = m.inv(psi).expect("psi invertible");
        let omega = m.mul(psi, psi);
        let inv_omega = m.inv(omega).expect("omega invertible");
        let inv_n = m.inv(n as u64).expect("n invertible mod q");

        let with_shoup = |vals: Vec<u64>| -> Vec<(u64, u64)> {
            vals.into_iter().map(|v| (v, m.shoup(v))).collect()
        };

        let mut psi_pows = Vec::with_capacity(n);
        let mut inv_psi_pows_n = Vec::with_capacity(n);
        let (mut p, mut ip) = (1u64, inv_n);
        for _ in 0..n {
            psi_pows.push(p);
            inv_psi_pows_n.push(ip);
            p = m.mul(p, psi);
            ip = m.mul(ip, inv_psi);
        }

        let mut omega_pows = Vec::with_capacity(n / 2);
        let mut inv_omega_pows = Vec::with_capacity(n / 2);
        let (mut w, mut iw) = (1u64, 1u64);
        for _ in 0..n / 2 {
            omega_pows.push(w);
            inv_omega_pows.push(iw);
            w = m.mul(w, omega);
            iw = m.mul(iw, inv_omega);
        }

        Self {
            modulus: m,
            n,
            log_n: n.trailing_zeros(),
            threads,
            psi_pows: with_shoup(psi_pows),
            inv_psi_pows_n: with_shoup(inv_psi_pows_n),
            omega_pows: with_shoup(omega_pows),
            inv_omega_pows: with_shoup(inv_omega_pows),
        }
    }

    /// The modulus these tables were built for.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The ring degree `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The executor handle residue operations over this prime fan out on.
    #[inline]
    pub fn threads(&self) -> &Arc<BpThreadPool> {
        &self.threads
    }

    /// Forward negacyclic NTT, in place. Input and output are in `[0, q)`.
    ///
    /// Internally the butterflies run lazily in `[0, 2q)` (Harvey-style):
    /// `mul_shoup_lazy` accepts unreduced inputs and `add_2q`/`sub_2q` keep
    /// values below `2q`, so only one final pass reduces to `[0, q)`.
    ///
    /// # Panics
    /// Panics if `a.len() != N`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        let _span = bp_telemetry::spans::span(bp_telemetry::spans::SpanKind::NttForward);
        let m = &self.modulus;
        // Pre-scale by psi powers; outputs may stay in [0, 2q).
        for (x, &(w, ws)) in a.iter_mut().zip(&self.psi_pows) {
            *x = m.mul_shoup_lazy(*x, w, ws);
        }
        self.cyclic_lazy(a, &self.omega_pows);
        for x in a.iter_mut() {
            *x = m.reduce_2q(*x);
        }
    }

    /// Inverse negacyclic NTT, in place.
    ///
    /// # Panics
    /// Panics if `a.len() != N`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "length mismatch");
        let _span = bp_telemetry::spans::span(bp_telemetry::spans::SpanKind::NttInverse);
        let m = &self.modulus;
        self.cyclic_lazy(a, &self.inv_omega_pows);
        // Post-scale by N^{-1} psi^{-j}; mul_shoup fully reduces any u64,
        // so this pass doubles as the final [0, 2q) -> [0, q) reduction.
        for (x, &(w, ws)) in a.iter_mut().zip(&self.inv_psi_pows_n) {
            *x = m.mul_shoup(*x, w, ws);
        }
    }

    /// Iterative radix-2 cyclic NTT with the given twiddle table
    /// (`ω^j` for forward, `ω^{-j}` for inverse).
    ///
    /// Lazy reduction: inputs may be anywhere in `[0, 2q)` (or any `u64`
    /// entering the first multiply), every butterfly keeps values in
    /// `[0, 2q)`, and outputs are left in `[0, 2q)` — callers reduce.
    fn cyclic_lazy(&self, a: &mut [u64], twiddles: &[(u64, u64)]) {
        let n = self.n;
        let m = &self.modulus;
        bit_reverse_permute(a, self.log_n);
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let step = n / len;
            for start in (0..n).step_by(len) {
                for j in 0..half {
                    let (w, ws) = twiddles[j * step];
                    let u = a[start + j];
                    let v = m.mul_shoup_lazy(a[start + j + half], w, ws);
                    a[start + j] = m.add_2q(u, v);
                    a[start + j + half] = m.sub_2q(u, v);
                }
            }
            len <<= 1;
        }
    }
}

/// In-place bit-reversal permutation of a length-`2^log_n` slice.
fn bit_reverse_permute(a: &mut [u64], log_n: u32) {
    let n = a.len();
    for i in 0..n {
        let j = (i as u64).reverse_bits() >> (64 - log_n);
        let j = j as usize;
        if i < j {
            a.swap(i, j);
        }
    }
}

/// Finds a primitive `2n`-th root of unity mod `q` (i.e. `ψ` with
/// `ψ^n ≡ -1`), deterministically scanning small candidate bases.
fn find_primitive_2n_root(m: &Modulus, n: u64) -> u64 {
    let q = m.value();
    let exp = (q - 1) / (2 * n);
    for base in 2..10_000u64 {
        let cand = m.pow(base, exp);
        // cand has order dividing 2n; it is primitive iff cand^n = -1.
        if m.pow(cand, n) == q - 1 {
            return cand;
        }
    }
    panic!("no primitive 2n-th root found for q = {q} (is q prime?)");
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_math::primes::ntt_primes_below;

    fn table(bits: u32, n: usize) -> NttTable {
        let q = ntt_primes_below(bits, 2 * n as u64).next().unwrap();
        NttTable::new(q, n)
    }

    /// Schoolbook negacyclic multiplication, the test oracle.
    #[allow(clippy::needless_range_loop)]
    fn negacyclic_mul_naive(a: &[u64], b: &[u64], m: &Modulus) -> Vec<u64> {
        let n = a.len();
        let mut out = vec![0u64; n];
        for i in 0..n {
            for j in 0..n {
                let p = m.mul(a[i], b[j]);
                let k = i + j;
                if k < n {
                    out[k] = m.add(out[k], p);
                } else {
                    out[k - n] = m.sub(out[k - n], p);
                }
            }
        }
        out
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for n in [4usize, 64, 1024] {
            let t = table(40, n);
            let q = t.modulus().value();
            let mut a: Vec<u64> = (0..n as u64).map(|i| (i * 0x9E3779B9 + 7) % q).collect();
            let orig = a.clone();
            t.forward(&mut a);
            assert_ne!(a, orig, "NTT should change the vector");
            t.inverse(&mut a);
            assert_eq!(a, orig);
        }
    }

    #[test]
    fn ntt_multiplication_matches_schoolbook() {
        let n = 32;
        let t = table(30, n);
        let q = t.modulus().value();
        let m = *t.modulus();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * i + 3) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 11) % q).collect();
        let expect = negacyclic_mul_naive(&a, &b, &m);

        let (mut fa, mut fb) = (a.clone(), b.clone());
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut fc: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| m.mul(x, y)).collect();
        t.inverse(&mut fc);
        assert_eq!(fc, expect);
    }

    #[test]
    fn negacyclic_wraparound_sign() {
        // X^(N-1) * X = X^N = -1.
        let n = 16;
        let t = table(30, n);
        let m = *t.modulus();
        let mut a = vec![0u64; n];
        a[n - 1] = 1;
        let mut b = vec![0u64; n];
        b[1] = 1;
        t.forward(&mut a);
        t.forward(&mut b);
        let mut c: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.mul(x, y)).collect();
        t.inverse(&mut c);
        assert_eq!(c[0], m.value() - 1, "X^N must equal -1");
        assert!(c[1..].iter().all(|&x| x == 0));
    }

    #[test]
    fn ntt_is_linear() {
        let n = 64;
        let t = table(35, n);
        let m = *t.modulus();
        let q = m.value();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 13 + 5) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 31 + 2) % q).collect();
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.add(x, y)).collect();
        let (mut fa, mut fb, mut fs) = (a, b, sum);
        t.forward(&mut fa);
        t.forward(&mut fb);
        t.forward(&mut fs);
        let fsum: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| m.add(x, y)).collect();
        assert_eq!(fs, fsum);
    }

    #[test]
    #[should_panic(expected = "NTT-friendly")]
    fn rejects_bad_modulus() {
        NttTable::new(97, 1 << 10); // 97 mod 2048 != 1
    }

    #[test]
    fn lazy_ntt_outputs_are_fully_reduced() {
        // The lazy butterflies work in [0, 2q); the public forward/inverse
        // contract is still canonical [0, q) output.
        for n in [8usize, 256, 2048] {
            let t = table(45, n);
            let q = t.modulus().value();
            let mut a: Vec<u64> = (0..n as u64)
                .map(|i| (i.wrapping_mul(0x2545F4914F6CDD1D) ^ 0xABCD) % q)
                .collect();
            t.forward(&mut a);
            assert!(a.iter().all(|&x| x < q), "forward left a value >= q");
            t.inverse(&mut a);
            assert!(a.iter().all(|&x| x < q), "inverse left a value >= q");
        }
    }
}
