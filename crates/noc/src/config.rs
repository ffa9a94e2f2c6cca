//! NoC configuration: router resources, pipeline depth, and the three
//! baseline presets of the paper (Table I).

use std::fmt;

/// The three state-of-the-art NoC baselines analysed in §II of the paper
/// (Table I), all NOCS 2017/2018 best-paper nominees.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NocPreset {
    /// DAPPER (Raparti & Pasricha, NOCS 2018): 4-stage pipeline, 16 B
    /// channels, 5 VCs, 4 buffers per VC.
    Dapper,
    /// AxNoC (Ahmed et al., NOCS 2018): 3-stage pipeline, 16 B channels,
    /// 4 VCs, 4 buffers per VC.
    AxNoc,
    /// BiNoCHS (Mirhosseini et al., NOCS 2017): 2-stage pipeline, 32 B
    /// channels, 4 VCs, 4 buffers per VC. The highest-performing baseline.
    BiNoChs,
}

impl NocPreset {
    /// All three presets, in paper order.
    pub const ALL: [NocPreset; 3] = [NocPreset::Dapper, NocPreset::AxNoc, NocPreset::BiNoChs];
}

impl fmt::Display for NocPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NocPreset::Dapper => "DAPPER",
            NocPreset::AxNoc => "AxNoC",
            NocPreset::BiNoChs => "BiNoCHS",
        };
        f.write_str(s)
    }
}

/// How [`crate::Network::step`] walks the mesh each cycle. Fixed when the
/// network is built; the two modes are bit-identical (DESIGN.md §12).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Stepping {
    /// Reference loop: every router, link and NI each cycle, and the
    /// clock never jumps. The oracle the other modes are checked against.
    Dense,
    /// Worklists of active components, with clock jumps across dead
    /// stretches (the default).
    #[default]
    Serial,
}

impl Stepping {
    /// Both modes, oracle first: the matrix the determinism suites and
    /// the served-system binaries run.
    pub const ALL: [Stepping; 2] = [Stepping::Dense, Stepping::Serial];
}

impl fmt::Display for Stepping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stepping::Dense => f.write_str("dense"),
            Stepping::Serial => f.write_str("serial"),
        }
    }
}

/// Configuration of a mesh NoC.
///
/// Construct with a preset ([`NocConfig::dapper`], [`NocConfig::axnoc`],
/// [`NocConfig::binochs`]) or [`NocConfig::default`], then adjust with the
/// builder-style `with_*` methods:
///
/// ```
/// use snacknoc_noc::NocConfig;
///
/// let cfg = NocConfig::axnoc().with_mesh(8, 8).with_buffers_per_vc(2);
/// assert_eq!(cfg.vcs_per_vnet, 4);
/// assert_eq!(cfg.buffers_per_vc, 2);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NocConfig {
    /// Mesh columns.
    pub cols: u16,
    /// Mesh rows.
    pub rows: u16,
    /// Link/channel width in bytes; packets are segmented into
    /// `ceil(size / channel_width)` flits.
    pub channel_width_bytes: u32,
    /// Number of virtual networks. The SnackNoC platform uses three:
    /// CMP requests, CMP responses, and a dedicated SnackNoC vnet (§III-B).
    pub vnets: u8,
    /// Virtual channels per vnet per input port.
    pub vcs_per_vnet: u8,
    /// Flit buffer slots per virtual channel.
    pub buffers_per_vc: u8,
    /// Router pipeline depth in stages (2–4 supported). Per-hop latency is
    /// `pipeline_stages - 1` router cycles plus 1 link cycle.
    pub pipeline_stages: u8,
    /// When `true`, communication-class flits are arbitrated strictly before
    /// SnackNoC flits at the VC and switch allocators (paper §III-D3).
    pub priority_arbitration: bool,
    /// Statistics sampling window in cycles (the paper samples utilization
    /// every 10 K cycles).
    pub sample_window: u64,
    /// How the network steps; see [`Stepping`].
    pub stepping: Stepping,
}

impl NocConfig {
    /// The DAPPER baseline on a 4×4 mesh (paper Table I).
    pub fn dapper() -> Self {
        NocConfig {
            channel_width_bytes: 16,
            vcs_per_vnet: 5,
            buffers_per_vc: 4,
            pipeline_stages: 4,
            ..Self::default()
        }
    }

    /// The AxNoC baseline on a 4×4 mesh (paper Table I).
    pub fn axnoc() -> Self {
        NocConfig {
            channel_width_bytes: 16,
            vcs_per_vnet: 4,
            buffers_per_vc: 4,
            pipeline_stages: 3,
            ..Self::default()
        }
    }

    /// The BiNoCHS baseline on a 4×4 mesh (paper Table I).
    pub fn binochs() -> Self {
        NocConfig {
            channel_width_bytes: 32,
            vcs_per_vnet: 4,
            buffers_per_vc: 4,
            pipeline_stages: 2,
            ..Self::default()
        }
    }

    /// The configuration for a named preset.
    pub fn preset(preset: NocPreset) -> Self {
        match preset {
            NocPreset::Dapper => Self::dapper(),
            NocPreset::AxNoc => Self::axnoc(),
            NocPreset::BiNoChs => Self::binochs(),
        }
    }

    /// Sets the mesh dimensions.
    pub fn with_mesh(mut self, cols: u16, rows: u16) -> Self {
        self.cols = cols;
        self.rows = rows;
        self
    }

    /// Sets the channel width in bytes.
    pub fn with_channel_width(mut self, bytes: u32) -> Self {
        self.channel_width_bytes = bytes;
        self
    }

    /// Sets the number of virtual channels per vnet.
    pub fn with_vcs_per_vnet(mut self, vcs: u8) -> Self {
        self.vcs_per_vnet = vcs;
        self
    }

    /// Sets the buffer depth per virtual channel.
    pub fn with_buffers_per_vc(mut self, buffers: u8) -> Self {
        self.buffers_per_vc = buffers;
        self
    }

    /// Sets the number of virtual networks.
    pub fn with_vnets(mut self, vnets: u8) -> Self {
        self.vnets = vnets;
        self
    }

    /// Sets the router pipeline depth (2–4 stages).
    pub fn with_pipeline_stages(mut self, stages: u8) -> Self {
        self.pipeline_stages = stages;
        self
    }

    /// Enables or disables communication-over-snack priority arbitration.
    pub fn with_priority_arbitration(mut self, on: bool) -> Self {
        self.priority_arbitration = on;
        self
    }

    /// Sets the statistics sampling window, in cycles.
    pub fn with_sample_window(mut self, cycles: u64) -> Self {
        self.sample_window = cycles;
        self
    }

    /// Selects the stepping mode.
    pub fn with_stepping(mut self, stepping: Stepping) -> Self {
        self.stepping = stepping;
        self
    }

    /// Total virtual channels per input port.
    pub fn vcs_per_port(&self) -> usize {
        self.vnets as usize * self.vcs_per_vnet as usize
    }

    /// Extra router-pipeline cycles a flit spends buffered before it may
    /// compete in switch allocation (`pipeline_stages - 1`).
    pub fn pipeline_extra(&self) -> u64 {
        u64::from(self.pipeline_stages) - 1
    }

    /// Number of flits a packet of `size_bytes` occupies on this NoC.
    pub fn flits_for(&self, size_bytes: u32) -> usize {
        (size_bytes.max(1)).div_ceil(self.channel_width_bytes) as usize
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cols == 0 || self.rows == 0 {
            return Err(ConfigError::EmptyMesh);
        }
        if self.channel_width_bytes == 0 {
            return Err(ConfigError::ZeroChannelWidth);
        }
        if self.vnets == 0 || self.vcs_per_vnet == 0 {
            return Err(ConfigError::NoVirtualChannels);
        }
        if self.vcs_per_port() > 64 {
            return Err(ConfigError::TooManyVirtualChannels(self.vcs_per_port()));
        }
        if u32::from(self.cols) * u32::from(self.rows) > 65_536 {
            return Err(ConfigError::MeshTooLarge {
                cols: self.cols,
                rows: self.rows,
            });
        }
        if self.buffers_per_vc == 0 {
            return Err(ConfigError::NoBuffers);
        }
        if !(2..=4).contains(&self.pipeline_stages) {
            return Err(ConfigError::BadPipelineDepth(self.pipeline_stages));
        }
        if self.sample_window == 0 {
            return Err(ConfigError::ZeroSampleWindow);
        }
        Ok(())
    }
}

impl Default for NocConfig {
    /// A 4×4 BiNoCHS-resourced mesh with 3 vnets and a 10 K-cycle sampling
    /// window — the simulated platform of paper Table IV.
    fn default() -> Self {
        NocConfig {
            cols: 4,
            rows: 4,
            channel_width_bytes: 32,
            vnets: 3,
            vcs_per_vnet: 4,
            buffers_per_vc: 4,
            pipeline_stages: 2,
            priority_arbitration: false,
            sample_window: 10_000,
            stepping: Stepping::Serial,
        }
    }
}

/// An invalid [`NocConfig`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ConfigError {
    /// A mesh dimension was zero.
    EmptyMesh,
    /// Channel width was zero bytes.
    ZeroChannelWidth,
    /// No virtual networks or no VCs per vnet.
    NoVirtualChannels,
    /// More than 64 virtual channels per port — the router tracks VC
    /// occupancy/credit state in per-port `u64` bitmasks.
    TooManyVirtualChannels(usize),
    /// More than 65 536 nodes — flits address nodes with `u16` indices.
    MeshTooLarge {
        /// Mesh columns.
        cols: u16,
        /// Mesh rows.
        rows: u16,
    },
    /// Zero buffers per VC.
    NoBuffers,
    /// Pipeline depth outside the supported 2–4 stage range.
    BadPipelineDepth(u8),
    /// Statistics sampling window of zero cycles.
    ZeroSampleWindow,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyMesh => write!(f, "mesh dimensions must be non-zero"),
            ConfigError::ZeroChannelWidth => write!(f, "channel width must be non-zero"),
            ConfigError::NoVirtualChannels => write!(f, "need at least one vnet and one vc per vnet"),
            ConfigError::TooManyVirtualChannels(n) => {
                write!(f, "{n} vcs per port exceeds the 64-vc bitmask limit")
            }
            ConfigError::MeshTooLarge { cols, rows } => {
                write!(f, "{cols}x{rows} mesh exceeds the 65536-node flit addressing limit")
            }
            ConfigError::NoBuffers => write!(f, "need at least one buffer slot per vc"),
            ConfigError::BadPipelineDepth(d) => {
                write!(f, "pipeline depth {d} unsupported (expected 2-4 stages)")
            }
            ConfigError::ZeroSampleWindow => write!(f, "sample window must be non-zero"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_one() {
        let d = NocConfig::dapper();
        assert_eq!((d.pipeline_stages, d.channel_width_bytes, d.vcs_per_vnet, d.buffers_per_vc), (4, 16, 5, 4));
        let a = NocConfig::axnoc();
        assert_eq!((a.pipeline_stages, a.channel_width_bytes, a.vcs_per_vnet, a.buffers_per_vc), (3, 16, 4, 4));
        let b = NocConfig::binochs();
        assert_eq!((b.pipeline_stages, b.channel_width_bytes, b.vcs_per_vnet, b.buffers_per_vc), (2, 32, 4, 4));
        for p in NocPreset::ALL {
            NocConfig::preset(p).validate().unwrap();
        }
    }

    #[test]
    fn flit_segmentation_rounds_up() {
        let cfg = NocConfig::default().with_channel_width(16);
        assert_eq!(cfg.flits_for(1), 1);
        assert_eq!(cfg.flits_for(16), 1);
        assert_eq!(cfg.flits_for(17), 2);
        assert_eq!(cfg.flits_for(64), 4);
        assert_eq!(cfg.flits_for(0), 1, "zero-byte packets still need a flit");
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert_eq!(NocConfig::default().with_mesh(0, 4).validate(), Err(ConfigError::EmptyMesh));
        assert_eq!(NocConfig::default().with_channel_width(0).validate(), Err(ConfigError::ZeroChannelWidth));
        assert_eq!(NocConfig::default().with_vcs_per_vnet(0).validate(), Err(ConfigError::NoVirtualChannels));
        assert_eq!(NocConfig::default().with_vnets(0).validate(), Err(ConfigError::NoVirtualChannels));
        assert_eq!(NocConfig::default().with_buffers_per_vc(0).validate(), Err(ConfigError::NoBuffers));
        assert_eq!(
            NocConfig::default().with_pipeline_stages(7).validate(),
            Err(ConfigError::BadPipelineDepth(7))
        );
        assert_eq!(NocConfig::default().with_sample_window(0).validate(), Err(ConfigError::ZeroSampleWindow));
        assert_eq!(
            NocConfig::default().with_vnets(5).with_vcs_per_vnet(13).validate(),
            Err(ConfigError::TooManyVirtualChannels(65))
        );
        assert_eq!(
            NocConfig::default().with_mesh(257, 256).validate(),
            Err(ConfigError::MeshTooLarge { cols: 257, rows: 256 })
        );
        assert!(NocConfig::default().with_mesh(256, 256).validate().is_ok(), "65536 nodes is legal");
        assert!(
            NocConfig::default().with_vnets(4).with_vcs_per_vnet(16).validate().is_ok(),
            "64 vcs per port is legal"
        );
    }

    #[test]
    fn serial_stepping_is_the_default() {
        assert_eq!(NocConfig::default().stepping, Stepping::Serial);
    }

    #[test]
    fn pipeline_extra_matches_per_hop_latency_model() {
        assert_eq!(NocConfig::binochs().pipeline_extra(), 1);
        assert_eq!(NocConfig::axnoc().pipeline_extra(), 2);
        assert_eq!(NocConfig::dapper().pipeline_extra(), 3);
    }

    #[test]
    fn error_display_is_nonempty() {
        let errors = [
            ConfigError::EmptyMesh,
            ConfigError::ZeroChannelWidth,
            ConfigError::NoVirtualChannels,
            ConfigError::NoBuffers,
            ConfigError::BadPipelineDepth(9),
            ConfigError::ZeroSampleWindow,
            ConfigError::TooManyVirtualChannels(65),
            ConfigError::MeshTooLarge { cols: 300, rows: 300 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
