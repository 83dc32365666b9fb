//! Experiment scale presets.
//!
//! `Paper` reproduces the paper's parameters (457k-row DOT stand-in, 10
//! samples per size, top-100 online experiments); `Quick` shrinks sizes and
//! sample counts so the whole suite runs in a couple of minutes — the shapes
//! survive, the constants wobble.

/// Scale preset for the figure experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Paper,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// `quick` or `paper`, by preset.
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }

    /// Database sizes for the "impact of n" sweeps (Figs 6, 7, 10, 13, 14).
    pub fn n_sweep(self) -> Vec<usize> {
        self.pick(
            vec![5_000, 10_000, 20_000],
            vec![20_000, 40_000, 60_000, 80_000, 100_000],
        )
    }

    /// Random samples per database size (paper: 10).
    pub fn samples(self) -> usize {
        self.pick(2, 10)
    }

    /// 1D workload size (paper: 32 queries, 25% unfiltered).
    pub fn one_d_queries(self) -> usize {
        self.pick(16, 32)
    }

    /// MD workload size (paper: 32 for DOT).
    pub fn md_queries(self) -> usize {
        self.pick(8, 32)
    }

    /// Blue Nile / Yahoo! Autos dataset sizes.
    pub fn bn_size(self) -> usize {
        self.pick(20_000, qrs_datagen::diamonds::FULL_SIZE)
    }

    pub fn ya_size(self) -> usize {
        self.pick(5_000, qrs_datagen::autos::FULL_SIZE)
    }

    /// Top-h ceiling for the online experiments (paper: 100).
    pub fn online_top_h(self) -> usize {
        self.pick(40, 100)
    }

    /// Fixed n for the system-k sweeps (Figs 8, 15).
    pub fn fixed_n(self) -> usize {
        self.pick(10_000, 100_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn paper_matches_figure_axes() {
        assert_eq!(Scale::Paper.n_sweep().len(), 5);
        assert_eq!(Scale::Paper.samples(), 10);
        assert_eq!(Scale::Paper.one_d_queries(), 32);
        assert_eq!(Scale::Paper.online_top_h(), 100);
    }
}
