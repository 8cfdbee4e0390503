//! Shared modelling options for the decoding-performance analysis.

/// How decodability is modelled given per-level coded-block counts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DecodabilityModel {
    /// The paper's large-field idealisation (footnote 1 of Sec. 3.3):
    /// a level (or prefix) decodes **iff** it has accumulated at least as
    /// many coded blocks as it has source blocks. Sharp 0/1 indicator.
    #[default]
    Sharp,
    /// Refines the indicator with the probability that a random matrix
    /// over `GF(q)` actually reaches full column rank,
    /// `∏_{i=d-a+1}^{d}(1 − q^{−i})` for `d` blocks covering `a` unknowns.
    ///
    /// For SLC (independent per-level RLC decodes) this makes the
    /// analysis exact up to the uniform-entry approximation; for PLC it
    /// is applied per constraint event and remains an approximation.
    RankExact {
        /// The field size `q` (e.g. 256).
        q: f64,
    },
}

/// Options for the analytical decoding curves.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AnalysisOptions {
    /// The decodability model; defaults to the paper's sharp indicator.
    pub model: DecodabilityModel,
}

impl AnalysisOptions {
    /// The paper's model.
    pub fn sharp() -> Self {
        AnalysisOptions {
            model: DecodabilityModel::Sharp,
        }
    }

    /// The rank-corrected model over `GF(q)`.
    pub fn rank_exact(q: f64) -> Self {
        AnalysisOptions {
            model: DecodabilityModel::RankExact { q },
        }
    }

    /// Weight for the event "`d` random blocks decode `a` unknowns".
    pub(crate) fn decode_weight(&self, d: usize, a: usize) -> f64 {
        match self.model {
            DecodabilityModel::Sharp => {
                if d >= a {
                    1.0
                } else {
                    0.0
                }
            }
            DecodabilityModel::RankExact { q } => crate::numeric::full_rank_probability(q, d, a),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharp_weight_is_indicator() {
        let o = AnalysisOptions::sharp();
        assert_eq!(o.decode_weight(4, 5), 0.0);
        assert_eq!(o.decode_weight(5, 5), 1.0);
        assert_eq!(o.decode_weight(9, 5), 1.0);
    }

    #[test]
    fn rank_exact_weight_is_between_zero_and_sharp() {
        let o = AnalysisOptions::rank_exact(256.0);
        assert_eq!(o.decode_weight(4, 5), 0.0);
        let w = o.decode_weight(5, 5);
        assert!(w > 0.99 && w < 1.0);
        assert!(o.decode_weight(8, 5) > w);
    }

    #[test]
    fn default_is_sharp() {
        assert_eq!(AnalysisOptions::default(), AnalysisOptions::sharp());
    }
}
