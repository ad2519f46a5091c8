//! Level management runs the same arithmetic whether telemetry records
//! or not: one AutoAlign program — a two-level `adjust_to`, an explicit
//! `rescale`, and repairs of both kinds — runs with the runtime gate off
//! and on. The wire bytes must match, and the trace must hold exactly one
//! `Adjust` entry per level stepped, flagged `repair` only where the
//! evaluator inserted the step itself.
//!
//! The telemetry gate is process-global, so this file holds one test.

#![cfg(feature = "telemetry")]

use bp_ckks::ir::{Op, OpKind, Program};
use bp_ckks::telemetry::{self, trace};
use bp_ckks::wire::write_ciphertext;
use bp_ckks::{CkksContext, CkksParams, EvalPolicy, Representation, SecurityLevel};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

#[test]
fn level_steps_are_identical_with_telemetry_on_and_off() {
    // Inputs 0 and 1 sit at the top level, 3.
    let program = Program::new(
        1,
        28,
        2,
        vec![
            Op::Adjust { a: 0, target: 1 }, // 2: two explicit steps
            Op::Mul { a: 1, b: 1 },         // 3
            Op::Rescale { a: 3 },           // 4: explicit, to level 2
            Op::Add { a: 4, b: 2 },         // 5: adjust repair of 4
            Op::Mul { a: 0, b: 1 },         // 6
            Op::Add { a: 6, b: 0 },         // 7: rescale 6, then adjust 0
        ],
    );
    use OpKind::{Add, Adjust, Mul, Rescale};
    let expected = [
        (Adjust, false, 2),
        (Adjust, false, 2),
        (Mul, false, 3),
        (Rescale, false, 4),
        (Adjust, true, 5),
        (Add, false, 5),
        (Mul, false, 6),
        (Rescale, true, 7),
        (Adjust, true, 7),
        (Add, false, 7),
    ];
    for repr in [Representation::BitPacker, Representation::RnsCkks] {
        let params = CkksParams::builder()
            .log_n(6)
            .word_bits(28)
            .representation(repr)
            .security(SecurityLevel::Insecure)
            .levels(3, 26)
            .base_modulus_bits(30)
            .build()
            .expect("params");
        let ctx = CkksContext::new(&params).expect("context");
        let mut rng = ChaCha20Rng::seed_from_u64(11);
        let keys = ctx.keygen(&mut rng);
        let inputs: Vec<_> = [0.25, -0.375]
            .map(|v| {
                let pt = ctx.encode(&vec![v; ctx.params().slots()], ctx.max_level());
                ctx.encrypt(&pt, &keys.public, &mut rng)
            })
            .into();
        let run = || -> Vec<Vec<u8>> {
            let ev = ctx.evaluator_with_policy(EvalPolicy::AutoAlign);
            let mut plain = |_: u64, n: usize| vec![0.0; n];
            let run = ev
                .run_program(&program, inputs.clone(), &keys.evaluation, &mut plain)
                .expect("program runs under AutoAlign");
            assert_eq!((ev.repairs().adjusts(), ev.repairs().rescales()), (2, 1));
            run.nodes().iter().map(write_ciphertext).collect()
        };

        telemetry::set_enabled(false);
        let off = run();
        telemetry::set_enabled(true);
        telemetry::reset();
        let on = run();
        let entries: Vec<_> = trace::take()
            .entries
            .iter()
            .map(|e| (e.op.kind, e.op.repair, e.op.ir_op.expect("stamped")))
            .collect();
        telemetry::reset();

        assert_eq!(off, on, "{repr}: wire bytes depend on telemetry");
        assert_eq!(entries, expected, "{repr}: trace entries");
    }
}
