//! Node hardware model: the simulated stand-in for the paper's Intel Atom
//! C2758 microserver (§2.1): 8 cores, two-level cache hierarchy, 8 GB DDR3 and
//! a single shared SATA disk.
//!
//! Only behaviours that drive the paper's effects are modelled:
//!
//! * **disk**: a shared bandwidth pool with (a) a per-stream sequential-rate
//!   cap that *grows with the HDFS block size* (longer sequential extents →
//!   fewer seeks), and (b) a stream-count efficiency curve `η(k)` that decays
//!   as concurrent streams interleave and thrash the head;
//! * **memory bandwidth**: a shared pool that saturates under many
//!   high-miss-rate cores — this is what makes CF/FP "memory-bound";
//! * **DRAM capacity**: overflowing it inflates disk traffic (spill/swap
//!   pressure), which penalises huge block sizes at high mapper counts.

/// Disk subsystem parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskSpec {
    /// Peak sequential bandwidth with a single stream, MB/s.
    pub peak_bw_mbps: f64,
    /// Per-stream rate approaches `stream_cap_mbps` for very large sequential
    /// extents; see [`DiskSpec::stream_rate`].
    pub stream_cap_mbps: f64,
    /// Half-saturation extent (MB) of the per-stream rate curve: a stream
    /// reading extents of this length achieves half of `stream_cap_mbps`.
    pub stream_half_extent_mb: f64,
    /// Seek-interference coefficient of the efficiency curve
    /// `η(k) = 1 / (1 + seek_penalty·(k-1))`.
    pub seek_penalty: f64,
    /// Active power of the disk at full utilisation, watts.
    pub active_power_w: f64,
}

impl DiskSpec {
    /// Effective aggregate bandwidth with `streams` concurrent streams, MB/s.
    ///
    /// `η(1) = 1`; more streams interleave seeks and reduce the aggregate.
    #[inline]
    pub fn aggregate_bw(&self, streams: f64) -> f64 {
        let k = streams.max(1.0);
        self.peak_bw_mbps / (1.0 + self.seek_penalty * (k - 1.0))
    }

    /// Achievable rate of a single stream reading sequential extents of
    /// `extent_mb` (MB/s), before any sharing is applied.
    ///
    /// This saturating curve is what makes small HDFS blocks slow: a 64 MB
    /// block never amortises the per-extent positioning cost the way a 1 GB
    /// block does.
    #[inline]
    pub fn stream_rate(&self, extent_mb: f64) -> f64 {
        let e = extent_mb.max(1.0);
        self.stream_cap_mbps * e / (e + self.stream_half_extent_mb)
    }
}

/// Memory subsystem parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MemSpec {
    /// Sustainable memory bandwidth, GB/s (DDR3-1600 on the Atom achieves far
    /// less than the channel peak; we use a realistic sustained figure).
    pub bandwidth_gbps: f64,
    /// DRAM capacity, MB.
    pub capacity_mb: f64,
    /// Power at full bandwidth utilisation, watts.
    pub active_power_w: f64,
}

/// The full node specification.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Physical cores (the Atom C2758 has 8).
    pub cores: u32,
    /// Disk subsystem.
    pub disk: DiskSpec,
    /// Memory subsystem.
    pub mem: MemSpec,
    /// Wall idle power of the whole box, watts. Subtracted from all EDP power
    /// figures exactly as the paper does (§2.5).
    pub idle_power_w: f64,
    /// Dynamic power of one fully-busy core at 2.4 GHz, watts. Other
    /// frequencies scale by [`crate::Frequency::dynamic_factor`].
    pub core_busy_power_w: f64,
    /// Power of a core that is allocated but stalled on I/O (iowait), watts.
    /// Burned regardless of frequency — this is why parking an I/O-bound app
    /// on all 8 cores wastes energy.
    pub core_iowait_power_w: f64,
    /// Frequency-independent per-core "uncore tax" while allocated, watts.
    pub core_static_power_w: f64,
}

impl NodeSpec {
    /// The paper's microserver: Intel Atom C2758, 8 cores, 8 GB DDR3-1600,
    /// one SATA disk.
    pub fn atom_c2758() -> NodeSpec {
        NodeSpec {
            cores: 8,
            disk: DiskSpec {
                peak_bw_mbps: 170.0,
                stream_cap_mbps: 150.0,
                stream_half_extent_mb: 110.0,
                seek_penalty: 0.055,
                active_power_w: 4.5,
            },
            mem: MemSpec {
                bandwidth_gbps: 9.5,
                capacity_mb: 8192.0,
                active_power_w: 3.0,
            },
            idle_power_w: 16.0,
            core_busy_power_w: 2.05,
            core_iowait_power_w: 0.22,
            core_static_power_w: 0.18,
        }
    }

    /// A Xeon-class big-core node, used by the "applies to high-performance
    /// servers too" extension experiments (§2.1 of the paper claims the
    /// methodology transfers; we back that with an ablation).
    pub fn xeon_like() -> NodeSpec {
        NodeSpec {
            cores: 16,
            disk: DiskSpec {
                peak_bw_mbps: 500.0,
                stream_cap_mbps: 420.0,
                stream_half_extent_mb: 80.0,
                seek_penalty: 0.03,
                active_power_w: 8.0,
            },
            mem: MemSpec {
                bandwidth_gbps: 45.0,
                capacity_mb: 65536.0,
                active_power_w: 12.0,
            },
            idle_power_w: 55.0,
            core_busy_power_w: 7.5,
            core_iowait_power_w: 1.1,
            core_static_power_w: 0.9,
        }
    }

    /// Memory bandwidth in MB/s (the executor works in MB).
    #[inline]
    pub fn mem_bw_mbps(&self) -> f64 {
        self.mem.bandwidth_gbps * 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_rate_grows_with_block_size() {
        let d = NodeSpec::atom_c2758().disk;
        let r64 = d.stream_rate(64.0);
        let r256 = d.stream_rate(256.0);
        let r1024 = d.stream_rate(1024.0);
        assert!(r64 < r256 && r256 < r1024);
        assert!(r1024 < d.stream_cap_mbps);
        // 64 MB blocks should pay a substantial sequentiality penalty.
        assert!(r64 / r1024 < 0.55, "r64={r64} r1024={r1024}");
    }

    #[test]
    fn aggregate_bw_decays_with_streams() {
        let d = NodeSpec::atom_c2758().disk;
        assert!((d.aggregate_bw(1.0) - d.peak_bw_mbps).abs() < 1e-9);
        assert!(d.aggregate_bw(4.0) < d.aggregate_bw(2.0));
        assert!(d.aggregate_bw(16.0) > 0.0);
        // Fractional and sub-1 stream counts are clamped.
        assert!((d.aggregate_bw(0.2) - d.peak_bw_mbps).abs() < 1e-9);
    }

    #[test]
    fn presets_are_sane() {
        let atom = NodeSpec::atom_c2758();
        assert_eq!(atom.cores, 8);
        assert!(atom.mem.capacity_mb >= 8.0 * 1024.0);
        let xeon = NodeSpec::xeon_like();
        assert!(xeon.cores > atom.cores);
        assert!(xeon.core_busy_power_w > atom.core_busy_power_w);
        assert!(xeon.mem.bandwidth_gbps > atom.mem.bandwidth_gbps);
    }
}
