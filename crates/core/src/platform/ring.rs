//! Ring transport: launching transient data tokens to their ring
//! successor, and handling a token's arrival at a node.

use super::{SnackPayload, SnackPlatform};
use crate::token::{DataToken, DATA_TOKEN_BYTES};
use snacknoc_noc::routing::xy_route;
use snacknoc_noc::{LinkFaultKind, NodeId, PacketSpec, TrafficClass};
use snacknoc_trace::EventKind;

impl SnackPlatform {
    /// Launches a data token from `node` to the next node on the static
    /// ring, detouring around faulted-down ring links when a fault plan is
    /// active.
    pub(super) fn launch_token(&mut self, node: NodeId, token: DataToken) {
        debug_assert!(token.dependents > 0, "dead token launched");
        let now = self.net.cycle();
        // Registry bookkeeping only for the epoch actually resident on
        // the home CPM — a straggler from an aborted attempt must not
        // plant a watch record in the retry's registry.
        let (home, resident) = self.home_of(token.dep);
        if resident {
            self.cpms[home].note_token(&token, node, now);
        }
        let mut next = self.ring_next[node.index()];
        if let Some(plan) = self.net.fault_plan() {
            if plan
                .links
                .iter()
                .any(|l| matches!(l.kind, LinkFaultKind::Down | LinkFaultKind::Dead))
            {
                // Graceful ring degradation: if the deterministic route to
                // the ring successor crosses a severed link right now, skip
                // ahead to the first successor whose route is fully live.
                // Skipped nodes are safe — a circulating token revisits
                // them on a later lap once the link heals, and permanently
                // unreachable captures are the watchdog's job.
                let mesh = *self.net.mesh();
                let route_blocked = |dst: NodeId| -> bool {
                    let mut cur = node;
                    while cur != dst {
                        let dir = xy_route(&mesh, cur, dst);
                        if plan.link_is_down(cur, dir, now) {
                            return true;
                        }
                        match mesh.neighbor(cur, dir) {
                            Some(nb) => cur = nb,
                            None => return true,
                        }
                    }
                    false
                };
                let mut candidate = next;
                for _ in 0..mesh.node_count() {
                    if candidate != node && !route_blocked(candidate) {
                        next = candidate;
                        break;
                    }
                    candidate = self.ring_next[candidate.index()];
                }
            }
        }
        self.net.tracer_mut().record_with(now, || EventKind::TokenLaunch {
            dep: token.dep,
            seq: token.seq,
            from: node.index() as u32,
            to: next.index() as u32,
        });
        let spec = PacketSpec::new(
            node,
            next,
            self.snack_vnet,
            TrafficClass::SnackData,
            DATA_TOKEN_BYTES,
            SnackPayload::Data(token),
        );
        self.net.inject(spec).expect("valid token packet");
    }

    /// Handles a ring token arriving at `node`: CPM overflow absorption,
    /// RCU inspection, then retirement or the next hop.
    pub(super) fn ring_pass(&mut self, node: NodeId, token: DataToken) {
        let now = self.net.cycle();
        let dep = token.dep;
        // A dead node's compute is gone but its router forwards: the token
        // passes straight through — no CPM absorption, no RCU capture.
        let dead_here = self.node_dead(node, now);
        let cpm_here =
            if dead_here { None } else { self.cpms.iter().position(|c| c.node() == node) };
        let mut token = if let Some(ci) = cpm_here {
            match self.cpms[ci].maybe_absorb(token, now) {
                Some(t) => t,
                None => {
                    // Parked in the overflow buffer.
                    self.net
                        .tracer_mut()
                        .record_with(now, || EventKind::CpmSpill { cpm: ci as u32, dep });
                    return;
                }
            }
        } else {
            token
        };
        let before = token.dependents;
        if !dead_here {
            self.rcus[node.index()].observe_token(&mut token);
        }
        let (home, _) = self.home_of(token.dep);
        let captured = before - token.dependents;
        if captured > 0 {
            // Wake edge: the capture may have readied an operand.
            self.wake_rcu(node.index());
            self.net.tracer_mut().record_with(now, || EventKind::RcuCapture {
                node: node.index() as u32,
                dep,
                captured,
            });
            self.cpms[home].note_captures(token.dep, captured, now);
        }
        // A copy retires when its own countdown hits zero — or, with the
        // watchdog enabled, as soon as the home CPM's record says every
        // dependent has been served. The latter catches duplicates from
        // false-positive loss declarations: the original and the replay
        // each capture a subset, so neither copy's own counter reaches
        // zero even though the dep is fully settled.
        if token.dependents > 0 && !self.cpms[home].token_settled(token.dep) {
            self.launch_token(node, token);
        } else {
            self.net.tracer_mut().record_with(now, || EventKind::TokenRetire {
                dep,
                node: node.index() as u32,
            });
            self.cpms[home].note_retired(token.dep, now);
        }
    }
}
