//! A simple two-rank DDR3 timing model for the CPM's memory interface.
//!
//! Paper §III-C1 sizes the CPM instruction buffer from the peak rate at
//! which kernel inputs stream out of a standard two-rank DDR3 part: 128
//! data inputs per DRAM row, giving bursts of up to 45 assembled
//! instructions per cycle when accesses hit open rows. We model fetches at
//! batch granularity: a fixed access latency to open the row, then a
//! streaming rate while the row stays open.

/// Timing parameters of the CPM's DRAM channel, in CPM (1 GHz) cycles.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DramModel {
    /// Cycles to activate a row and return the first beat.
    pub access_latency: u64,
    /// Items streamed per cycle once a row is open.
    pub items_per_cycle: f64,
    /// Items per DRAM row (fetches larger than this pay another activate).
    pub row_items: usize,
    /// Items streamed per cycle when the access pattern is an irregular
    /// indexed gather (row-buffer misses dominate).
    pub irregular_items_per_cycle: f64,
}

impl Default for DramModel {
    /// DDR3-1600-like timing at a 1 GHz controller: ~60 cycle access, 8
    /// items/cycle stream, 128 items per row (paper §III-C1).
    fn default() -> Self {
        DramModel {
            access_latency: 60,
            items_per_cycle: 8.0,
            row_items: 128,
            irregular_items_per_cycle: 1.0,
        }
    }
}

impl DramModel {
    /// Cycles to fetch a batch of `items` sequential items.
    pub fn batch_latency(&self, items: usize) -> u64 {
        if items == 0 {
            return 0;
        }
        let rows = items.div_ceil(self.row_items) as u64;
        let stream = (items as f64 / self.items_per_cycle).ceil() as u64;
        rows * self.access_latency + stream
    }

    /// Streaming cycles for `items` once the row pipeline is primed
    /// (activates overlap with transfers in a sequential stream).
    pub fn stream_cycles(&self, items: usize, irregular: bool) -> u64 {
        let rate = if irregular { self.irregular_items_per_cycle } else { self.items_per_cycle };
        (items as f64 / rate).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_scales_with_rows_and_items() {
        let d = DramModel::default();
        assert_eq!(d.batch_latency(0), 0);
        assert_eq!(d.batch_latency(8), 60 + 1);
        assert_eq!(d.batch_latency(64), 60 + 8);
        assert_eq!(d.batch_latency(128), 60 + 16);
        assert_eq!(d.batch_latency(129), 120 + 17, "second row pays another activate");
    }
}
