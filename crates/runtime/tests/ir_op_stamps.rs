//! Every program loop stamps IR node ids into the op trace: the same
//! program run through the supervised `Runtime::run_program` and through
//! `Evaluator::run_program` must record the identical `Some(node)`
//! sequence.
//!
//! Telemetry state is process-global, so this file holds one test.

#![cfg(feature = "telemetry")]

use bp_ckks::telemetry::{self, trace};
use bp_ckks::{CkksContext, CkksParams, Representation, SecurityLevel};
use bp_ir::ProgramBuilder;
use bp_runtime::{BpThreadPool, JobSpec, MemoryStore, Runtime};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::sync::Arc;

#[test]
fn runtime_and_evaluator_stamp_the_same_ir_nodes() {
    let params = CkksParams::builder()
        .log_n(6)
        .word_bits(28)
        .representation(Representation::BitPacker)
        .security(SecurityLevel::Insecure)
        .levels(3, 30)
        .base_modulus_bits(35)
        .build()
        .expect("params");
    let pool = Arc::new(BpThreadPool::sequential());
    let ctx = CkksContext::with_threads(&params, pool.clone()).expect("context");
    let mut rng = ChaCha20Rng::seed_from_u64(3);
    let keys = ctx.keygen(&mut rng);

    let mut b = ProgramBuilder::new(28);
    let x = b.input();
    let w = b.mul_plain(x, 1);
    let r = b.rescale(w);
    let sq = b.square(r);
    let y = b.rescale(sq);
    let lo = b.adjust(x, 1);
    let out = b.sub(y, lo);
    b.output("y", out);
    let program = Arc::new(b.finish());
    let mut plain = |pseed: u64, n: usize| vec![0.125 * pseed as f64; n];
    let vals = vec![0.3; ctx.params().slots()];
    let input = ctx.encrypt(&ctx.encode(&vals, ctx.max_level()), &keys.public, &mut rng);

    let stamps =
        || -> Vec<Option<u64>> { trace::take().entries.iter().map(|e| e.op.ir_op).collect() };
    telemetry::set_enabled(true);
    telemetry::reset();
    ctx.evaluator()
        .run_program(&program, vec![input.clone()], &keys.evaluation, &mut plain)
        .expect("evaluator run");
    let direct = stamps();
    let spec = JobSpec::new("stamps").program(program);
    Runtime::with_threads(pool)
        .run_program(
            &spec,
            &ctx,
            &keys.evaluation,
            &[input],
            &plain,
            &MemoryStore::new(),
        )
        .expect("runtime run");
    let supervised = stamps();
    telemetry::reset();

    assert!(
        direct.len() >= 7 && direct.iter().all(Option::is_some),
        "{direct:?}"
    );
    assert_eq!(supervised, direct);
}
