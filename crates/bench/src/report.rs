//! Serializable experiment records (written as JSON lines next to the text
//! tables so results can be post-processed or plotted externally).
//!
//! The JSON renderers below are hand-rolled so the harness does not need a
//! JSON dependency (the build environment is offline).

/// One point of a speed/accuracy trade-off curve (Fig. 7) or a
/// colors/accuracy curve (Fig. 8).
#[derive(Clone, Debug)]
pub struct TradeoffPoint {
    /// Task type: "maxflow", "lp", or "centrality".
    pub task: String,
    /// Dataset name.
    pub dataset: String,
    /// Number of colors used by the approximation.
    pub colors: usize,
    /// End-to-end approximation time in seconds (coloring + reduction +
    /// solving).
    pub approx_seconds: f64,
    /// Exact baseline time in seconds.
    pub exact_seconds: f64,
    /// Accuracy: relative error for max-flow/LP, Spearman's rho for
    /// centrality.
    pub accuracy: f64,
    /// Maximum q-error of the coloring.
    pub max_q_error: f64,
}

impl TradeoffPoint {
    /// One-line JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"task\":\"{}\",\"dataset\":\"{}\",\"colors\":{},\"approx_seconds\":{:.6},\"exact_seconds\":{:.6},\"accuracy\":{:.6},\"max_q_error\":{:.6}}}",
            self.task,
            self.dataset,
            self.colors,
            self.approx_seconds,
            self.exact_seconds,
            self.accuracy,
            self.max_q_error
        )
    }
}

/// One row of the Table 4-style compression report.
#[derive(Clone, Debug)]
pub struct CompressionRow {
    /// Dataset name.
    pub dataset: String,
    /// Setting label ("stable", "q=64", ...).
    pub setting: String,
    /// Measured maximum q-error.
    pub max_q: f64,
    /// Measured mean q-error.
    pub mean_q: f64,
    /// Number of colors.
    pub colors: usize,
    /// Compression ratio `n : k`.
    pub compression: f64,
    /// Wall-clock seconds to compute the coloring.
    pub seconds: f64,
}

impl CompressionRow {
    /// One-line JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"dataset\":\"{}\",\"setting\":\"{}\",\"max_q\":{:.4},\"mean_q\":{:.4},\"colors\":{},\"compression\":{:.2},\"seconds\":{:.6}}}",
            self.dataset, self.setting, self.max_q, self.mean_q, self.colors, self.compression, self.seconds
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tradeoff_point_json_contains_fields() {
        let p = TradeoffPoint {
            task: "lp".into(),
            dataset: "qap15".into(),
            colors: 50,
            approx_seconds: 0.2,
            exact_seconds: 10.0,
            accuracy: 1.05,
            max_q_error: 3.0,
        };
        let json = p.to_json();
        assert!(json.contains("\"task\":\"lp\""));
        assert!(json.contains("\"colors\":50"));
    }
}
