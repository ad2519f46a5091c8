//! End-to-end behaviour of the telemetry stores with the `enabled`
//! feature compiled in. Global state means the whole flow lives in one
//! test function.

#![cfg(feature = "enabled")]

use bp_telemetry::counters::{self, Counter};
use bp_telemetry::events::{self, Event, RepairKind};
use bp_telemetry::profile;
use bp_telemetry::spans::{self, SpanKind};
use bp_telemetry::trace::{self, OpKind, OpRecord, TraceMeta};

fn record(kind: OpKind, ns: u64) {
    trace::record_op(OpRecord {
        kind,
        level: 2,
        residues: 3,
        shed: 0,
        added: 0,
        batched: false,
        repair: false,
        duration_ns: ns,
        noise_bits: 5.0,
        clear_bits: 90.0,
        scale_log2: 40.0,
        log_q: 81.0,
        ir_op: None,
    });
}

#[test]
fn counters_spans_events_and_trace_flow_together() {
    bp_telemetry::set_enabled(true);
    bp_telemetry::reset();

    // Counters accumulate and reset.
    counters::add(Counter::ElemwiseOps, 3);
    counters::add(Counter::ElemwiseOps, 2);
    counters::add(Counter::ParBusyNs, 10);
    assert_eq!(counters::get(Counter::ElemwiseOps), 5);
    let det = counters::deterministic_snapshot();
    assert!(det
        .iter()
        .any(|&(c, v)| c == Counter::ElemwiseOps && v == 5));
    assert!(det.iter().all(|&(c, _)| c.deterministic()));

    // Spans are profiler frames: the tree counts them per kind, and the
    // kernel counter mapped to the kind reads the same count.
    for _ in 0..2 {
        let _sp = spans::span(SpanKind::BasisConvert);
        std::hint::black_box(42u64);
    }
    let (count, total_ns) = profile::snapshot().by_leaf(SpanKind::BasisConvert.name());
    assert_eq!(count, 2);
    assert!(total_ns > 0);
    assert_eq!(counters::get(Counter::BasisConversions), 2);
    let det = counters::deterministic_snapshot();
    assert!(det
        .iter()
        .any(|&(c, v)| c == Counter::BasisConversions && v == 2));

    // Ops and repairs interleave on one event stream, and the trace
    // recorder sequences the same ops.
    trace::set_meta(TraceMeta {
        workload: "flow".into(),
        n: 1 << 13,
        dnum: 3,
        special: 1,
        word_bits: 28,
    });
    record(OpKind::Mul, 500);
    events::emit(Event::Repair {
        kind: RepairKind::Rescale,
        op: OpKind::Add,
        level: 1,
    });
    record(OpKind::Add, 200);

    assert_eq!(counters::get(Counter::EvalOps), 2);

    let stream = events::drain();
    assert_eq!(stream.len(), 3);
    assert!(matches!(&stream[0], Event::Op(e) if e.op.kind == OpKind::Mul));
    assert!(matches!(
        &stream[1],
        Event::Repair {
            kind: RepairKind::Rescale,
            ..
        }
    ));
    assert!(matches!(&stream[2], Event::Op(e) if e.op.kind == OpKind::Add));
    assert!(events::drain().is_empty(), "drain empties the stream");

    let t = trace::take();
    assert_eq!(t.meta.workload, "flow");
    assert_eq!(t.entries.len(), 2);
    assert_eq!(t.entries[0].seq, 0);
    assert_eq!(t.entries[1].seq, 1);
    assert_eq!(t.total_ns(), 700);
    assert_eq!(t.dropped, 0);

    // JSON roundtrip of a live-recorded trace.
    let back = bp_telemetry::trace::EvalTrace::from_json(&t.to_json()).expect("parse");
    assert_eq!(back, t);

    // The runtime gate stops recording without a rebuild.
    bp_telemetry::set_enabled(false);
    record(OpKind::Sub, 100);
    counters::add(Counter::ElemwiseOps, 7);
    assert_eq!(
        counters::get(Counter::ElemwiseOps),
        5,
        "gated add is a no-op"
    );
    {
        let _sp = spans::span(SpanKind::BasisConvert);
    }
    assert_eq!(counters::get(Counter::BasisConversions), 2, "gated span");
    assert!(trace::take().entries.is_empty());
    bp_telemetry::set_enabled(true);

    // Full reset clears every store.
    bp_telemetry::reset();
    assert_eq!(counters::get(Counter::ElemwiseOps), 0);
    assert_eq!(counters::get(Counter::BasisConversions), 0);
    assert_eq!(
        profile::snapshot().by_leaf(SpanKind::BasisConvert.name()),
        (0, 0)
    );
    assert!(events::drain().is_empty());
    assert!(trace::take().entries.is_empty());
}
