//! Packet-trace recording and open-loop replay.
//!
//! The paper's methodology is trace-driven: SynchroTrace captures each
//! application's events once, and gem5/Garnet replays them against
//! different NoC configurations. This module provides the same workflow
//! for the synthetic engines: record the packet injections of a closed-loop
//! run into a [`Trace`], serialise it to CSV, and replay it *open-loop*
//! (fixed injection times) on any NoC — so different router configurations
//! see byte-identical traffic.
//!
//! Note the standard caveat, which also applies to the paper's traces:
//! open-loop replay does not let the application throttle under
//! congestion, so replayed latencies diverge from closed-loop runs once a
//! configuration saturates.

use crate::engine::TrafficEngine;
use crate::message::CmpMessage;
use crate::profile::BenchmarkProfile;
use snacknoc_noc::{ConfigError, NetStats, Network, NocConfig, NodeId, PacketSpec, TrafficClass};
use std::fmt;
use std::io::{self, BufRead, Write};

/// One recorded packet injection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Injection cycle.
    pub cycle: u64,
    /// Source node index.
    pub src: u32,
    /// Destination node index.
    pub dst: u32,
    /// Virtual network.
    pub vnet: u8,
    /// Packet size in bytes.
    pub size_bytes: u32,
}

/// A recorded packet trace, ordered by injection cycle.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

/// A malformed trace file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceParseError {
    /// 1-indexed line number of the offending record.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for TraceParseError {}

impl Trace {
    /// Creates a trace from events (sorted by cycle on construction).
    pub fn new(mut events: Vec<TraceEvent>) -> Self {
        events.sort_by_key(|e| e.cycle);
        Trace { events }
    }

    /// The recorded events, in cycle order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded packets.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The last injection cycle (0 for an empty trace).
    pub fn horizon(&self) -> u64 {
        self.events.last().map_or(0, |e| e.cycle)
    }

    /// Writes the trace as CSV (`cycle,src,dst,vnet,size_bytes`, one
    /// record per line, header included).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn to_csv(&self, mut w: impl Write) -> io::Result<()> {
        writeln!(w, "cycle,src,dst,vnet,size_bytes")?;
        for e in &self.events {
            writeln!(w, "{},{},{},{},{}", e.cycle, e.src, e.dst, e.vnet, e.size_bytes)?;
        }
        Ok(())
    }

    /// Parses a CSV trace written by [`Trace::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceParseError`] on malformed records (I/O errors are
    /// reported as a parse error naming the failing line).
    pub fn from_csv(r: impl BufRead) -> Result<Trace, TraceParseError> {
        let mut events = Vec::new();
        for (i, line) in r.lines().enumerate() {
            let lineno = i + 1;
            let err = |reason: &str| TraceParseError { line: lineno, reason: reason.to_string() };
            let line = line.map_err(|e| err(&format!("io error: {e}")))?;
            let line = line.trim();
            if line.is_empty() || (lineno == 1 && line.starts_with("cycle")) {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 5 {
                return Err(err("expected 5 comma-separated fields"));
            }
            let parse = |s: &str, what: &str| {
                s.trim().parse::<u64>().map_err(|_| err(&format!("bad {what}: {s:?}")))
            };
            events.push(TraceEvent {
                cycle: parse(fields[0], "cycle")?,
                src: parse(fields[1], "src")? as u32,
                dst: parse(fields[2], "dst")? as u32,
                vnet: parse(fields[3], "vnet")? as u8,
                size_bytes: parse(fields[4], "size_bytes")? as u32,
            });
        }
        Ok(Trace::new(events))
    }
}

/// Result of recording a benchmark run.
#[derive(Debug)]
pub struct RecordedRun {
    /// The packet trace.
    pub trace: Trace,
    /// The recording run's application runtime.
    pub runtime_cycles: u64,
    /// Whether the recording run finished.
    pub finished: bool,
}

/// Runs `profile` to completion on `cfg` (like
/// [`crate::runner::run_benchmark`]) while recording every injected packet.
///
/// # Errors
///
/// Returns [`ConfigError`] if `cfg` is invalid.
pub fn record_benchmark(
    profile: &BenchmarkProfile,
    cfg: NocConfig,
    seed: u64,
) -> Result<RecordedRun, ConfigError> {
    let mut net: Network<CmpMessage> = Network::new(cfg)?;
    let mesh = *net.mesh();
    let mut engine = TrafficEngine::new(profile.clone(), mesh, seed);
    let nominal: f64 = profile
        .phases
        .iter()
        .map(|p| p.requests_per_core as f64 * p.think_time / profile.outstanding as f64)
        .sum();
    let cap = (nominal as u64 + 100_000) * 20;
    let nodes: Vec<_> = mesh.nodes().collect();
    let mut events = Vec::new();
    let mut specs = Vec::new();
    while !engine.done() && net.cycle() < cap {
        engine.tick(net.cycle(), &mut specs);
        for spec in specs.drain(..) {
            events.push(TraceEvent {
                cycle: net.cycle(),
                src: spec.src.index() as u32,
                dst: spec.dst.index() as u32,
                vnet: spec.vnet,
                size_bytes: spec.size_bytes,
            });
            net.inject(spec).expect("engine produces valid packets");
        }
        net.step();
        let now = net.cycle();
        for &node in &nodes {
            for pkt in net.drain_ejected(node) {
                engine.deliver(now, node, pkt.payload);
            }
        }
    }
    Ok(RecordedRun {
        trace: Trace::new(events),
        runtime_cycles: engine.finished_at().unwrap_or(net.cycle()),
        finished: engine.done(),
    })
}

/// Result of an open-loop trace replay.
#[derive(Debug)]
pub struct ReplayResult {
    /// Cycle the last packet was delivered.
    pub drain_cycle: u64,
    /// Packets delivered (equals the trace length on success).
    pub delivered: u64,
    /// Whether every packet was delivered before the safety cap.
    pub finished: bool,
    /// Network statistics of the replay.
    pub stats: NetStats,
}

/// Replays `trace` open-loop on a fresh network built from `cfg`: each
/// packet is injected at its recorded cycle, regardless of congestion.
///
/// # Errors
///
/// Returns [`ConfigError`] if `cfg` is invalid.
///
/// # Panics
///
/// Panics if the trace references nodes outside `cfg`'s mesh.
pub fn replay(trace: &Trace, cfg: NocConfig) -> Result<ReplayResult, ConfigError> {
    let mut net: Network<u64> = Network::new(cfg)?;
    let total = trace.len() as u64;
    let mut idx = 0;
    let cap = trace.horizon() + 10_000_000;
    while (net.delivered_packets() < total || idx < trace.events.len()) && net.cycle() < cap {
        while idx < trace.events.len() && trace.events[idx].cycle <= net.cycle() {
            let e = trace.events[idx];
            net.inject(PacketSpec::new(
                NodeId::new(e.src as usize),
                NodeId::new(e.dst as usize),
                e.vnet,
                TrafficClass::Communication,
                e.size_bytes,
                idx as u64,
            ))
            .expect("trace references valid nodes/vnets");
            idx += 1;
        }
        net.step();
    }
    Ok(ReplayResult {
        drain_cycle: net.cycle(),
        delivered: net.delivered_packets(),
        finished: net.delivered_packets() == total,
        stats: net.stats().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{profile, Benchmark};

    fn small_trace() -> Trace {
        let p = profile(Benchmark::Fmm).scaled(0.003);
        let rec = record_benchmark(&p, NocConfig::dapper(), 7).unwrap();
        assert!(rec.finished);
        rec.trace
    }

    #[test]
    fn recording_captures_every_transaction_leg() {
        let p = profile(Benchmark::Cholesky).scaled(0.005);
        let rec = record_benchmark(&p, NocConfig::dapper(), 3).unwrap();
        assert!(rec.finished);
        // Each request generates a response: even count, ordered cycles.
        assert_eq!(rec.trace.len() % 2, 0);
        assert!(rec.trace.events().windows(2).all(|w| w[0].cycle <= w[1].cycle));
        assert!(rec.trace.horizon() <= rec.runtime_cycles);
    }

    #[test]
    fn csv_round_trips() {
        let t = small_trace();
        let mut buf = Vec::new();
        t.to_csv(&mut buf).unwrap();
        let parsed = Trace::from_csv(buf.as_slice()).unwrap();
        assert_eq!(t, parsed);
    }

    #[test]
    fn csv_rejects_malformed_records() {
        let bad = "cycle,src,dst,vnet,size_bytes\n1,2,3\n";
        let err = Trace::from_csv(bad.as_bytes()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("5 comma-separated"));
        let bad = "1,2,3,x,5\n";
        assert!(Trace::from_csv(bad.as_bytes()).is_err());
        assert!(Trace::from_csv("".as_bytes()).unwrap().is_empty());
    }

    #[test]
    fn replay_delivers_every_recorded_packet() {
        let t = small_trace();
        let r = replay(&t, NocConfig::dapper()).unwrap();
        assert!(r.finished, "replay must drain");
        assert_eq!(r.delivered, t.len() as u64);
        assert!(r.drain_cycle >= t.horizon());
    }

    #[test]
    fn replay_is_config_portable_and_congestion_sensitive() {
        // The same trace replays on a different NoC; a starved NoC delivers
        // the same packets with equal or higher mean latency.
        use snacknoc_noc::TrafficClass;
        let t = small_trace();
        let full = replay(&t, NocConfig::axnoc()).unwrap();
        let starved = replay(&t, NocConfig::axnoc().with_channel_width(4)).unwrap();
        assert!(full.finished && starved.finished);
        let lat = |r: &ReplayResult| r.stats.class(TrafficClass::Communication).mean_latency();
        assert!(
            lat(&starved) > lat(&full),
            "quartered channels must raise latency: {} vs {}",
            lat(&starved),
            lat(&full)
        );
    }
}
