//! Chrome trace-event (Perfetto-loadable) JSON export.
//!
//! Emits the "JSON array format": a top-level array of event objects with
//! `name`/`ph`/`ts`/`pid`/`tid` fields, one process lane per component
//! class (pid 1 = router, 2 = rcu, 3 = cpm), plus `process_name` metadata
//! events so the lanes are labeled in the viewer. Timestamps are simulator
//! cycles rendered as integer microseconds — 1 cycle == 1 µs in the
//! viewer's timeline, which keeps the output byte-deterministic (no
//! floating point anywhere).

use std::fmt::Write as _;

use crate::event::{ComponentClass, EventKind, TraceEvent};
use crate::tracer::RingTracer;

/// Render a recorded trace as Chrome trace-event JSON.
///
/// Span-like events become `"X"` complete events with a `dur`:
/// * [`EventKind::RcuFire`] — `[cycle, cycle + latency)`,
/// * [`EventKind::PacketEject`] — reconstructed as `[cycle - latency, cycle)`.
///
/// Everything else becomes an `"i"` instant event (thread scope). Per-class
/// drop counters are appended as metadata-style instant events on each lane
/// so saturated traces are self-describing.
pub fn to_chrome_trace(tracer: &RingTracer) -> String {
    let events = tracer.merged_events();
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("[\n");

    // Lane metadata first: deterministic fixed order.
    for class in ComponentClass::ALL {
        let _ = writeln!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}},",
            class.pid(),
            class.lane_name()
        );
    }

    for ev in &events {
        write_event(&mut out, ev);
        out.push_str(",\n");
    }

    // Drop counters last, pinned at the trace's final cycle.
    let end = tracer.cycle_range().map(|(_, l)| l).unwrap_or(0);
    for (i, class) in ComponentClass::ALL.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"name\":\"dropped_events\",\"ph\":\"i\",\"ts\":{},\"pid\":{},\"tid\":0,\"s\":\"p\",\"args\":{{\"count\":{}}}}}",
            end,
            class.pid(),
            tracer.dropped(*class)
        );
        if i + 1 < ComponentClass::ALL.len() {
            out.push_str(",\n");
        }
    }

    out.push_str("\n]\n");
    out
}

fn write_event(out: &mut String, ev: &TraceEvent) {
    let kind = &ev.kind;
    let pid = kind.class().pid();
    let tid = kind.tid();
    let (ph, ts, dur) = match kind {
        EventKind::RcuFire { latency, .. } => ("X", ev.cycle, Some(*latency.max(&1))),
        EventKind::PacketEject { latency, .. } => {
            ("X", ev.cycle.saturating_sub(*latency), Some((*latency).max(1)))
        }
        _ => ("i", ev.cycle, None),
    };
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
        kind.name(),
        ph,
        ts,
        pid,
        tid
    );
    if let Some(d) = dur {
        let _ = write!(out, ",\"dur\":{}", d);
    }
    if ph == "i" {
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(",\"args\":{");
    for (i, (k, v)) in kind.args().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", k, v);
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FireDest;
    use crate::json::validate_chrome_trace;

    fn sample_tracer() -> RingTracer {
        let mut t = RingTracer::new(64);
        t.record(0, EventKind::KernelSubmit { cpm: 0 });
        t.record(
            1,
            EventKind::PacketInject { packet: 7, src: 0, dst: 5, vnet: 2, class: 1, flits: 3 },
        );
        t.record(
            9,
            EventKind::PacketEject { packet: 7, node: 5, latency: 8, hops: 3, flits: 3, class: 1 },
        );
        t.record(
            10,
            EventKind::RcuFire {
                node: 5,
                sub_block: 0,
                seq: 0,
                op: 3,
                latency: 2,
                deps: [crate::event::NO_DEP; 2],
                dest: FireDest::Acc,
            },
        );
        t.record(20, EventKind::KernelFinish { cpm: 0 });
        t
    }

    #[test]
    fn export_parses_and_counts_all_lanes() {
        let json = to_chrome_trace(&sample_tracer());
        let summary = validate_chrome_trace(&json).expect("valid chrome trace");
        assert!(summary.router_events >= 2);
        assert!(summary.rcu_events >= 1);
        assert!(summary.cpm_events >= 2);
    }

    #[test]
    fn export_is_byte_stable() {
        let a = to_chrome_trace(&sample_tracer());
        let b = to_chrome_trace(&sample_tracer());
        assert_eq!(a, b);
    }

    #[test]
    fn eject_span_start_is_inject_cycle() {
        let json = to_chrome_trace(&sample_tracer());
        // latency 8 ending at cycle 9 -> span starts at ts=1 with dur=8.
        assert!(json.contains("\"name\":\"packet_eject\",\"ph\":\"X\",\"ts\":1,"));
        assert!(json.contains("\"dur\":8"));
    }

    #[test]
    fn empty_tracer_still_emits_valid_json_but_fails_validation() {
        let t = RingTracer::new(4);
        let json = to_chrome_trace(&t);
        assert!(crate::json::parse(&json).is_ok());
        assert!(validate_chrome_trace(&json).is_err(), "no real events -> invalid");
    }
}
