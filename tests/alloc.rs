//! Counting-allocator proof that the activity-driven hot loop is
//! **allocation-free in steady state**: once scratch buffers and queue
//! capacities are warm, 1 000 consecutive `Network::step` cycles with
//! traffic in flight (and no tracer) perform zero heap allocations, and so
//! does a `SnackPlatform` delivering CMP traffic across clock jumps.
//!
//! The whole file is one integration-test crate so the `#[global_allocator]`
//! hook owns the process: every heap allocation anywhere in the test binary
//! passes through [`CountingAlloc`]. The counter is only *read* around the
//! measured regions, so unrelated test-harness allocations before/after a
//! region don't pollute the measurement. Because the counter is process
//! global, every measuring test holds [`MEASURE_LOCK`] for its whole body:
//! the harness may run tests on parallel threads, and another test's
//! warm-up allocations must not land inside a measured region.

use snacknoc_core::SnackPlatform;
use snacknoc_noc::{Network, NocConfig, NodeId, PacketSpec, TrafficClass};
use snacknoc_workloads::{BenchmarkProfile, Phase};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Serializes the measuring tests (see the module docs).
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

/// System allocator wrapper that counts every `alloc`/`realloc` call.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the only addition is a relaxed
// atomic increment, which cannot violate the GlobalAlloc contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Closed-loop traffic: every delivered packet is immediately re-injected
/// back toward where it came from, so a fixed population of packets stays
/// in flight forever and the same code paths (NI injection, router
/// pipeline, link traversal, ejection, reassembly) run every cycle.
fn bounce(
    net: &mut Network<u64>,
    scratch: &mut Vec<snacknoc_noc::Packet<u64>>,
    nodes: &[NodeId],
    size_bytes: u32,
) {
    for &node in nodes {
        net.drain_ejected_into(node, scratch);
    }
    for pkt in scratch.drain(..) {
        let spec = PacketSpec::new(
            pkt.dst,
            pkt.src,
            pkt.vnet,
            TrafficClass::Communication,
            size_bytes,
            pkt.payload,
        );
        net.inject(spec).expect("bounce packets stay valid");
    }
}

#[test]
fn steady_state_network_step_allocates_nothing() {
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    // A sampling window far beyond the run length: the only allocating
    // stats path (the per-window series roll) must not fire mid-measure.
    let cfg = NocConfig::default().with_mesh(8, 8).with_sample_window(1_000_000);
    let mut net: Network<u64> = Network::new(cfg).expect("valid config");
    let nodes: Vec<NodeId> = net.mesh().nodes().collect();
    let mut scratch: Vec<snacknoc_noc::Packet<u64>> = Vec::with_capacity(256);

    // Seed a fixed population of packets criss-crossing the mesh.
    let n = nodes.len();
    for i in 0..48usize {
        let src = nodes[(i * 7) % n];
        let dst = nodes[(i * 13 + 5) % n];
        if src == dst {
            continue;
        }
        let spec =
            PacketSpec::new(src, dst, (i % 2) as u8, TrafficClass::Communication, 8, i as u64);
        net.inject(spec).expect("seed packets valid");
    }

    // Warm-up: let every scratch vector, queue, and hash map reach its
    // steady-state capacity (several round trips across the 8x8 mesh).
    for _ in 0..4_000 {
        net.step();
        bounce(&mut net, &mut scratch, &nodes, 8);
    }
    assert!(net.pending_packets() > 0, "warm-up kept traffic in flight");
    let delivered_before = net.delivered_packets();

    // Measured region: 1k steady-state cycles, traffic in flight, no
    // tracer. Zero heap allocations allowed.
    let allocs_before = ALLOC_CALLS.load(Ordering::SeqCst);
    for _ in 0..1_000 {
        net.step();
        bounce(&mut net, &mut scratch, &nodes, 8);
    }
    let allocs_after = ALLOC_CALLS.load(Ordering::SeqCst);

    assert!(
        net.delivered_packets() > delivered_before,
        "measured region must exercise the full deliver/re-inject loop"
    );
    assert!(net.pending_packets() > 0, "traffic still in flight after measurement");
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "steady-state Network::step must be allocation-free \
         ({} allocations in 1k cycles)",
        allocs_after - allocs_before
    );
}

/// The *loaded* counterpart (ISSUE PR 10): a saturation-level closed-loop
/// population of multi-flit packets — router buffers contended, NI
/// backlogs nonzero, reassembly and the payload pool churning every cycle
/// — still performs zero heap allocations once the pools are warm. The
/// payload slab is preallocated for the whole population up front, so its
/// demand-growth counter must stay at zero for the entire run, not just
/// the measured region.
#[test]
fn saturated_steady_state_allocates_nothing() {
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = NocConfig::default().with_mesh(8, 8).with_sample_window(1_000_000);
    let mut net: Network<u64> = Network::new(cfg).expect("valid config");
    let nodes: Vec<NodeId> = net.mesh().nodes().collect();
    let mut scratch: Vec<snacknoc_noc::Packet<u64>> = Vec::with_capacity(512);

    // Enough multi-flit packets to keep the 8x8 mesh saturated: far more
    // flits in flight than the routers can buffer, so the surplus queues
    // at the NIs and every pipeline stage contends every cycle.
    const POPULATION: usize = 320;
    const SIZE_BYTES: u32 = 64;
    net.preallocate_payloads(POPULATION);
    let n = nodes.len();
    for i in 0..POPULATION {
        let src = nodes[(i * 11) % n];
        let dst = nodes[(i * 17 + 3) % n];
        if src == dst {
            continue;
        }
        let spec = PacketSpec::new(
            src,
            dst,
            (i % 2) as u8,
            TrafficClass::Communication,
            SIZE_BYTES,
            i as u64,
        );
        net.inject(spec).expect("seed packets valid");
    }

    for _ in 0..6_000 {
        net.step();
        bounce(&mut net, &mut scratch, &nodes, SIZE_BYTES);
    }
    assert!(net.pending_packets() > 0, "warm-up kept traffic in flight");
    assert!(net.total_ni_backlog() > 0, "population saturates the mesh");
    assert!(net.payload_pool_live() > 0, "in-flight payloads live in the pool");
    assert_eq!(
        net.payload_pool_growth_events(),
        0,
        "preallocation covered the closed-loop population"
    );
    let delivered_before = net.delivered_packets();

    let allocs_before = ALLOC_CALLS.load(Ordering::SeqCst);
    for _ in 0..1_000 {
        net.step();
        bounce(&mut net, &mut scratch, &nodes, SIZE_BYTES);
    }
    let allocs_after = ALLOC_CALLS.load(Ordering::SeqCst);

    assert!(
        net.delivered_packets() > delivered_before,
        "measured region must exercise the full deliver/re-inject loop"
    );
    assert!(net.pending_packets() > 0, "traffic still in flight after measurement");
    assert_eq!(net.payload_pool_growth_events(), 0, "pool never grew on demand");
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "loaded steady-state Network::step must be allocation-free \
         ({} allocations in 1k cycles)",
        allocs_after - allocs_before
    );
}

/// Building a network costs a bounded number of heap allocations per
/// node: each router keeps its input VCs, slot rings and output credits
/// in a few flat arrays rather than one buffer per VC, and its flit slots
/// are allocated on first use, not at construction.
#[test]
fn network_construction_allocations_are_bounded_per_node() {
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = NocConfig::default().with_mesh(32, 32);
    let allocs_before = ALLOC_CALLS.load(Ordering::SeqCst);
    let net: Network<u64> = Network::new(cfg).expect("valid config");
    let allocs = ALLOC_CALLS.load(Ordering::SeqCst) - allocs_before;
    let nodes = net.mesh().node_count() as f64;
    let per_node = allocs as f64 / nodes;
    assert!(
        per_node <= 16.0,
        "Network::new made {allocs} allocations for {nodes} nodes ({per_node:.1} per node)"
    );
}

/// The platform delivery path: a warmed 8x8 `SnackPlatform` running a
/// think-heavy closed-loop CMP profile makes zero heap allocations over a
/// window of thousands of deliveries. Engine ticks write into a reused
/// buffer, ejected packets drain through a reused buffer that leaves each
/// node's ejection queue its capacity, and the idle stretches between
/// requests are crossed by clock jumps that fold component wakes without
/// a calendar.
#[test]
fn platform_delivery_steady_state_allocates_nothing() {
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = NocConfig::default().with_mesh(8, 8).with_sample_window(1_000_000);
    let mut p = SnackPlatform::new(cfg).expect("valid platform");
    let profile = BenchmarkProfile {
        name: "alloc",
        phases: vec![Phase::smooth(400, 1_500.0)],
        outstanding: 1,
    };
    p.attach_workload(&profile, 7);

    // Warm-up: every node has ejected and every queue, heap, pool slab
    // and buffer has reached its steady-state capacity.
    p.step_until(150_000);
    let delivered_before = p.net_delivered_packets();

    let allocs_before = ALLOC_CALLS.load(Ordering::SeqCst);
    p.step_until(300_000);
    let allocs_after = ALLOC_CALLS.load(Ordering::SeqCst);

    assert!(
        p.net_delivered_packets() > delivered_before + 5_000,
        "measured region must deliver requests and responses"
    );
    assert!(!p.workload_done(), "the workload is still issuing after measurement");
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "steady-state SnackPlatform stepping must be allocation-free \
         ({} allocations over 150k cycles)",
        allocs_after - allocs_before
    );
}
