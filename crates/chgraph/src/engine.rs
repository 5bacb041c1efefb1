//! The ChGraph engine's hardware cost model (§VI-E).
//!
//! The paper prototypes ChGraph in Verilog RTL, synthesizes it with the
//! Synopsys toolchain on the TSMC 65 nm library, and estimates buffers with
//! CACTI 6.5. This module reproduces the resulting *accounting*: the
//! engine's storage inventory (stack, chain FIFO, bipartite-edge FIFO,
//! configuration registers), its area, and its power, calibrated to the
//! paper's reported totals — 0.094 mm² and 61 mW at 65 nm, i.e. 0.26 % of
//! the area and 0.19 % of the TDP of a 65 nm general-purpose core (Intel
//! Core2 E6750 class).
//!
//! The engine's *timing* (§V-B, Fig. 12) has exactly one model: the
//! execution driver in `exec.rs` charges the HCG and CP pipelines on their
//! own per-core timers as it walks each chain, against the same simulated
//! hierarchy the cores use, so every figure, fingerprint and benchmark
//! number comes from that one model.

use serde::{Deserialize, Serialize};

/// One storage structure of the engine.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct BufferSpec {
    /// Structure name.
    pub name: &'static str,
    /// Entries.
    pub entries: usize,
    /// Bytes per entry.
    pub entry_bytes: usize,
}

impl BufferSpec {
    /// Total bytes of the structure.
    pub fn bytes(&self) -> usize {
        self.entries * self.entry_bytes
    }

    /// Total kilobytes (KiB).
    pub fn kib(&self) -> f64 {
        self.bytes() as f64 / 1024.0
    }
}

/// The engine's hardware inventory and cost model.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct EngineCostModel {
    /// Stack depth of the hardware chain generator (paper: 16).
    pub stack_depth: usize,
    /// Chain FIFO entries (paper: 32).
    pub chain_fifo_entries: usize,
    /// Bipartite-edge FIFO entries (paper: 32).
    pub edge_fifo_entries: usize,
    /// Total engine area in mm² at 65 nm (paper: 0.094).
    pub area_mm2: f64,
    /// Total engine power in mW (paper: 61).
    pub power_mw: f64,
    /// Reference general-purpose core area in mm² at 65 nm.
    pub core_area_mm2: f64,
    /// Reference per-core TDP in mW.
    pub core_tdp_mw: f64,
}

impl EngineCostModel {
    /// The paper's configuration and synthesis results.
    pub fn paper() -> Self {
        EngineCostModel {
            stack_depth: 16,
            chain_fifo_entries: 32,
            edge_fifo_entries: 32,
            area_mm2: 0.094,
            power_mw: 61.0,
            // 0.094 mm² is 0.26 % of the core; 61 mW is 0.19 % of TDP.
            core_area_mm2: 0.094 / 0.0026,
            core_tdp_mw: 61.0 / 0.0019,
        }
    }

    /// The storage inventory of §VI-E. Each stack level holds a vertex
    /// index (4 B), beginning and end offsets (4 B each), and one cacheline
    /// of neighbor ids (64 B); chain FIFO entries are 4-B element ids;
    /// bipartite-edge FIFO entries are 24-B tuples; plus 84 B of
    /// memory-mapped configuration registers (Fig. 13).
    pub fn buffers(&self) -> [BufferSpec; 4] {
        [
            BufferSpec {
                name: "HCG stack",
                entries: self.stack_depth,
                entry_bytes: 4 + 4 + 4 + 64,
            },
            BufferSpec { name: "chain FIFO", entries: self.chain_fifo_entries, entry_bytes: 4 },
            BufferSpec {
                name: "bipartite-edge FIFO",
                entries: self.edge_fifo_entries,
                entry_bytes: 24,
            },
            BufferSpec { name: "config registers", entries: 1, entry_bytes: 84 },
        ]
    }

    /// Total engine storage in bytes.
    pub fn total_storage_bytes(&self) -> usize {
        self.buffers().iter().map(BufferSpec::bytes).sum()
    }

    /// Area as a fraction of the reference core.
    pub fn area_fraction_of_core(&self) -> f64 {
        self.area_mm2 / self.core_area_mm2
    }

    /// Power as a fraction of the reference core's TDP.
    pub fn power_fraction_of_tdp(&self) -> f64 {
        self.power_mw / self.core_tdp_mw
    }

    /// Per-buffer area estimate (mm²): storage-proportional split of the
    /// buffer share of total area, CACTI-style, with the remainder
    /// attributed to datapath logic.
    pub fn buffer_area_mm2(&self, buffer: &BufferSpec) -> f64 {
        // Buffers take roughly half the engine area; logic the rest.
        let buffer_area = self.area_mm2 * 0.5;
        buffer_area * buffer.bytes() as f64 / self.total_storage_bytes() as f64
    }
}

impl Default for EngineCostModel {
    fn default() -> Self {
        EngineCostModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_inventory_matches_paper() {
        let m = EngineCostModel::paper();
        let b = m.buffers();
        // Stack: 16 levels x 76 B = 1216 B ≈ 1.19 KB.
        assert_eq!(b[0].bytes(), 1216);
        assert!((b[0].kib() - 1.1875).abs() < 1e-9);
        // Chain FIFO: 32 x 4 B = 128 B ≈ 0.13 KB.
        assert_eq!(b[1].bytes(), 128);
        // Bipartite-edge FIFO: 32 x 24 B = 768 B = 0.75 KB.
        assert_eq!(b[2].bytes(), 768);
        assert!((b[2].kib() - 0.75).abs() < 1e-9);
        // Registers: 84 B.
        assert_eq!(b[3].bytes(), 84);
    }

    #[test]
    fn area_and_power_fractions_match_paper() {
        let m = EngineCostModel::paper();
        assert!((m.area_fraction_of_core() - 0.0026).abs() < 1e-9);
        assert!((m.power_fraction_of_tdp() - 0.0019).abs() < 1e-9);
        assert!((m.area_mm2 - 0.094).abs() < 1e-12);
        assert!((m.power_mw - 61.0).abs() < 1e-12);
    }

    #[test]
    fn buffer_areas_sum_to_half_total() {
        let m = EngineCostModel::paper();
        let sum: f64 = m.buffers().iter().map(|b| m.buffer_area_mm2(b)).sum();
        assert!((sum - m.area_mm2 * 0.5).abs() < 1e-9);
    }

    #[test]
    fn engine_is_cheap() {
        let m = EngineCostModel::paper();
        assert!(m.total_storage_bytes() < 4096, "engine storage must be a few KB");
        assert!(m.area_fraction_of_core() < 0.01);
    }
}
