//! # snacknoc-core
//!
//! The SnackNoC platform (HPCA 2020): a computation layer living inside a
//! CMP's Network-on-Chip. Each router gains a light-weight **Router Compute
//! Unit** (RCU); a **Central Packet Manager** (CPM) at a memory-controller
//! node fetches compiled kernels from DRAM, issues instruction tokens at
//! one flit per cycle, and collects results. Intermediate values circulate
//! as **transient data tokens** on a static Hamiltonian ring, using the
//! NoC's spare bandwidth as the token store.
//!
//! Modules:
//!
//! * [`fixed`] — the 32-bit Q16.16 fixed-point RCU datapath format.
//! * [`token`] — instruction/data tokens and compiled-kernel validation.
//! * [`rcu`] — the per-router dataflow processing element.
//! * [`cpm`] — the central controller, congestion detection and overflow.
//! * [`dram`] — the DDR3 batch-fetch timing model behind the CPM.
//! * [`platform`] — the assembled system: NoC + CPM + RCUs + CMP workload.
//! * [`lifecycle`] — [`SnackPlatform::run_kernel`], the kernel run loop
//!   with graceful degradation, written against the platform's methods.
//!
//! ## Example
//!
//! ```
//! use snacknoc_core::platform::SnackPlatform;
//! use snacknoc_core::token::{CompiledKernel, Instruction, Op, Operand, ResultDest};
//! use snacknoc_core::fixed::Fixed;
//! use snacknoc_noc::NocConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut platform = SnackPlatform::new(NocConfig::default())?;
//! let pe = platform.mesh().node_at(1, 1);
//! let kernel = CompiledKernel {
//!     name: "add".into(),
//!     num_outputs: 1,
//!     irregular_fetch: false,
//!     instructions: vec![Instruction {
//!         op: Op::Add,
//!         pe,
//!         vl: Operand::Imm(Fixed::from_f64(2.0)),
//!         vr: Operand::Imm(Fixed::from_f64(3.0)),
//!         dest: ResultDest::Output { index: 0 },
//!         sub_block: 0,
//!         seq: 0,
//!         ends_block: true,
//!     }],
//! };
//! let run = platform.run_kernel(&kernel, 10_000)?;
//! assert_eq!(run.outputs[0], Fixed::from_f64(5.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cpm;
pub mod dram;
pub mod fixed;
pub mod lifecycle;
pub mod platform;
pub mod rcu;
pub mod token;

pub use cpm::{
    Cpm, CpmConfig, CpmConfigError, CpmState, RecoveryConfig, RecoveryStats, SubmitError,
};
pub use dram::DramModel;
pub use fixed::Fixed;
pub use lifecycle::{DegradationReport, KernelRun};
pub use platform::{
    DegradedResource, MultiProgramRun, PlatformConfig, PlatformConfigError, PlatformError,
    SnackPayload, SnackPlatform,
};
pub use rcu::{Emission, Rcu};
pub use token::{
    CompiledKernel, DataToken, DepId, Instruction, Op, Operand, ProgramError, ResultDest,
};
