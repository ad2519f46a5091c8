//! Worker-count invariance of the deterministic telemetry counters.
//!
//! For a fixed op program, every counter classified deterministic
//! (NTT/elementwise/basis/keyswitch/rescale/adjust/eval-op counts — not
//! the pool-utilization gauges), the full recorded op sequence, and the
//! span tree's paths with their counts must be bit-identical whether the
//! thread pool runs 1 worker or 4. The last holds only because pool
//! workers record their kernel frames under the dispatching op's path.
//!
//! Telemetry state is process-global, so this file holds exactly one test
//! (integration tests get their own process; `#[test]` fns within one
//! file would race).

#![cfg(feature = "telemetry")]

use bp_ckks::telemetry::counters::{self, Counter};
use bp_ckks::telemetry::{self, profile, trace};
use bp_ckks::{BpThreadPool, CkksContext, CkksParams, Representation, SecurityLevel};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::sync::Arc;

/// One run's deterministic record: counters, op sequence, and span-tree
/// `(path, count)` rows.
type Record = (Vec<(Counter, u64)>, Vec<String>, Vec<(String, u64)>);

fn run_program(threads: usize) -> Record {
    let params = CkksParams::builder()
        .log_n(10)
        .word_bits(28)
        .representation(Representation::BitPacker)
        .security(SecurityLevel::Insecure)
        .levels(3, 40)
        .base_modulus_bits(50)
        .build()
        .expect("params");
    let ctx =
        CkksContext::with_threads(&params, Arc::new(BpThreadPool::new(threads))).expect("context");
    let mut rng = ChaCha20Rng::seed_from_u64(5);
    let mut keys = ctx.keygen(&mut rng);
    ctx.gen_rotation_keys(&mut keys, &[1], &mut rng);
    let vals: Vec<f64> = (0..ctx.params().slots())
        .map(|i| (i as f64).cos() / 3.0)
        .collect();
    let ct = ctx.encrypt(&ctx.encode(&vals, ctx.max_level()), &keys.public, &mut rng);

    // Count only the op program itself, not setup.
    telemetry::reset();
    trace::set_meta(ctx.telemetry_meta("determinism"));
    let ev = ctx.evaluator();
    let prod = ev.mul(&ct, &ct, &keys.evaluation).expect("mul");
    let rot = ev.rotate(&prod, 1, &keys.evaluation).expect("rotate");
    let sum = ev.add(&prod, &rot).expect("add");
    let low = ev.rescale(&sum).expect("rescale");
    let adjusted = ev.adjust_to(&ct, low.level()).expect("adjust");
    let _ = ev.sub(&low, &adjusted);

    let snap = counters::deterministic_snapshot();
    let paths: Vec<(String, u64)> = profile::snapshot()
        .paths
        .into_iter()
        .map(|p| (p.path, p.count))
        .collect();
    let ops: Vec<String> = trace::take()
        .entries
        .iter()
        .map(|e| {
            format!(
                "{}:{} l{} r{} s{} a{}",
                e.seq,
                e.op.kind.name(),
                e.op.level,
                e.op.residues,
                e.op.shed,
                e.op.added
            )
        })
        .collect();
    telemetry::reset();
    (snap, ops, paths)
}

#[test]
fn deterministic_counters_and_op_sequence_are_worker_count_invariant() {
    let (seq1, ops1, paths1) = run_program(1);
    let (seq4, ops4, paths4) = run_program(4);

    // Nonzero: the program exercised every deterministic counter class
    // that the pipeline touches.
    let get = |snap: &[(Counter, u64)], c: Counter| {
        snap.iter()
            .find(|(k, _)| *k == c)
            .map(|&(_, v)| v)
            .expect("present")
    };
    for c in [
        Counter::NttForward,
        Counter::NttInverse,
        Counter::ElemwiseOps,
        Counter::BasisConversions,
        Counter::KeySwitches,
        Counter::Rescales,
        Counter::Adjusts,
        Counter::EvalOps,
    ] {
        assert!(get(&seq1, c) > 0, "{} should be nonzero", c.name());
    }
    // The sub at the end ran 6 public ops plus the adjust trace entry.
    assert_eq!(get(&seq1, Counter::EvalOps), ops1.len() as u64);

    // Bit-identical across worker counts.
    assert_eq!(
        seq1, seq4,
        "deterministic counters diverged across worker counts"
    );
    assert_eq!(
        ops1, ops4,
        "recorded op sequence diverged across worker counts"
    );

    // Kernel frames nest under the op that ran them.
    assert!(paths1.iter().any(|(p, _)| p == "mul;keyswitch;ntt_forward"));
    assert_eq!(
        paths1, paths4,
        "span-tree paths or counts diverged across worker counts"
    );
}
