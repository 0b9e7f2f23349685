//! Machine parameters (the paper's Table 1).

/// Cache geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size: u32,
    /// Associativity (ways).
    pub assoc: u32,
    /// Line size in bytes.
    pub line: u32,
    /// Hit time in cycles.
    pub hit_time: u32,
    /// Additional miss penalty in cycles.
    pub miss_penalty: u32,
}

/// Out-of-order machine parameters.
///
/// The two presets reproduce Table 1:
///
/// | parameter | 4-way | 8-way |
/// |---|---|---|
/// | fetch/decode/retire width | 4 | 8 |
/// | issue window | 16 int + 16 fp | 32 int + 32 fp |
/// | max in-flight | 32 | 64 |
/// | functional units | 2 int + 2 fp | 4 int + 4 fp |
/// | load/store ports | 1 | 2 |
/// | physical registers | 48 int + 48 fp | 80 int + 80 fp |
/// | I-cache | 64 KB 2-way, 128 B lines, 1/6 cycles | same |
/// | D-cache | 32 KB 2-way, 32 B lines, 1/6 cycles | same |
/// | predictor | gshare, 32 K 2-bit counters, 15-bit history | same |
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Preset name for reports.
    pub name: String,
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions decoded/renamed per cycle.
    pub decode_width: u32,
    /// Instructions retired per cycle.
    pub retire_width: u32,
    /// INT issue-window entries.
    pub int_window: u32,
    /// FP issue-window entries.
    pub fp_window: u32,
    /// Maximum in-flight instructions (reorder-buffer size).
    ///
    /// The wakeup-driven fast path in `crate::ooo` tracks readiness and
    /// unissued-store barriers as 64-bit masks over the ROB window, so
    /// it handles `max_inflight <= 64` (the two Table 1 machines use 32
    /// and 64). Larger windows are still simulated correctly — they
    /// transparently fall back to the reference rescan engine.
    pub max_inflight: u32,
    /// Integer functional units.
    pub int_units: u32,
    /// Floating-point functional units.
    pub fp_units: u32,
    /// Load/store ports.
    pub ls_ports: u32,
    /// Integer physical registers.
    pub int_phys: u32,
    /// Floating-point physical registers.
    pub fp_phys: u32,
    /// Whether the FP subsystem accepts the 22 augmented opcodes.
    pub augmented: bool,
    /// Instruction cache.
    pub icache: CacheConfig,
    /// Data cache.
    pub dcache: CacheConfig,
    /// gshare global-history bits (counter table is `2^bits`).
    pub gshare_bits: u32,
}

impl MachineConfig {
    /// The paper's 4-way (2 int + 2 fp) machine.
    #[must_use]
    pub fn four_way(augmented: bool) -> MachineConfig {
        MachineConfig {
            name: format!(
                "4-way{}",
                if augmented {
                    " augmented"
                } else {
                    " conventional"
                }
            ),
            fetch_width: 4,
            decode_width: 4,
            retire_width: 4,
            int_window: 16,
            fp_window: 16,
            max_inflight: 32,
            int_units: 2,
            fp_units: 2,
            ls_ports: 1,
            int_phys: 48,
            fp_phys: 48,
            augmented,
            icache: CacheConfig {
                size: 64 * 1024,
                assoc: 2,
                line: 128,
                hit_time: 1,
                miss_penalty: 6,
            },
            dcache: CacheConfig {
                size: 32 * 1024,
                assoc: 2,
                line: 32,
                hit_time: 1,
                miss_penalty: 6,
            },
            gshare_bits: 15,
        }
    }

    /// The paper's 8-way (4 int + 4 fp) machine.
    #[must_use]
    pub fn eight_way(augmented: bool) -> MachineConfig {
        MachineConfig {
            name: format!(
                "8-way{}",
                if augmented {
                    " augmented"
                } else {
                    " conventional"
                }
            ),
            fetch_width: 8,
            decode_width: 8,
            retire_width: 8,
            int_window: 32,
            fp_window: 32,
            max_inflight: 64,
            int_units: 4,
            fp_units: 4,
            ls_ports: 2,
            int_phys: 80,
            fp_phys: 80,
            ..MachineConfig::four_way(augmented)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_4way_parameters() {
        let c = MachineConfig::four_way(true);
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.decode_width, 4);
        assert_eq!(c.retire_width, 4);
        assert_eq!(c.int_window, 16);
        assert_eq!(c.fp_window, 16);
        assert_eq!(c.max_inflight, 32);
        assert_eq!(c.int_units, 2);
        assert_eq!(c.fp_units, 2);
        assert_eq!(c.ls_ports, 1);
        assert_eq!(c.int_phys, 48);
        assert_eq!(c.fp_phys, 48);
        assert_eq!(c.icache.size, 64 * 1024);
        assert_eq!(c.icache.line, 128);
        assert_eq!(c.icache.miss_penalty, 6);
        assert_eq!(c.dcache.size, 32 * 1024);
        assert_eq!(c.dcache.assoc, 2);
        assert_eq!(c.dcache.line, 32);
        assert_eq!(c.gshare_bits, 15);
        assert!(c.augmented);
    }

    #[test]
    fn table1_8way_parameters() {
        let c = MachineConfig::eight_way(false);
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.int_window, 32);
        assert_eq!(c.fp_window, 32);
        assert_eq!(c.max_inflight, 64);
        assert_eq!(c.int_units, 4);
        assert_eq!(c.fp_units, 4);
        assert_eq!(c.ls_ports, 2);
        assert_eq!(c.int_phys, 80);
        assert_eq!(c.fp_phys, 80);
        assert!(!c.augmented);
        assert!(c.name.contains("8-way"));
    }
}
