//! Framework error type.

use std::fmt;

/// Errors surfaced by the recommendation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum MinaretError {
    /// The manuscript details failed validation.
    InvalidManuscript(String),
    /// No keyword (original or expanded) resolved to any topic and no
    /// candidates could be retrieved.
    NoCandidates,
    /// Every scholarly source failed during extraction.
    AllSourcesFailed(Vec<String>),
    /// Too few sources answered candidate retrieval to trust a result:
    /// fewer than the editor's `min_sources` floor responded (outages,
    /// timeouts, open circuit breakers). The degraded sources are named.
    SourcesUnavailable {
        /// How many sources answered successfully.
        responded: usize,
        /// The editor's `min_sources` floor.
        required: usize,
        /// Names of the sources that failed or were short-circuited.
        degraded: Vec<String>,
    },
}

impl fmt::Display for MinaretError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinaretError::InvalidManuscript(msg) => {
                write!(f, "invalid manuscript details: {msg}")
            }
            MinaretError::NoCandidates => {
                write!(
                    f,
                    "no candidate reviewers could be retrieved for the keywords"
                )
            }
            MinaretError::AllSourcesFailed(errs) => {
                write!(f, "all scholarly sources failed: {}", errs.join("; "))
            }
            MinaretError::SourcesUnavailable {
                responded,
                required,
                degraded,
            } => {
                write!(
                    f,
                    "only {responded} of the required {required} sources answered"
                )?;
                if !degraded.is_empty() {
                    write!(f, " (degraded: {})", degraded.join(", "))?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for MinaretError {}

impl MinaretError {
    /// The `result` label this error is counted under in the
    /// `minaret_recommend_total` and `minaret_assign_total` series.
    pub fn result_label(&self) -> &'static str {
        match self {
            MinaretError::InvalidManuscript(_) => "invalid",
            MinaretError::NoCandidates => "no_candidates",
            MinaretError::SourcesUnavailable { .. } => "sources_unavailable",
            MinaretError::AllSourcesFailed(_) => "error",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(MinaretError::InvalidManuscript("x".into())
            .to_string()
            .contains("x"));
        assert!(MinaretError::NoCandidates.to_string().contains("candidate"));
        assert!(MinaretError::AllSourcesFailed(vec!["a".into(), "b".into()])
            .to_string()
            .contains("a; b"));
        let e = MinaretError::SourcesUnavailable {
            responded: 1,
            required: 2,
            degraded: vec!["Google Scholar".into(), "Publons".into()],
        };
        let text = e.to_string();
        assert!(text.contains("1 of the required 2"));
        assert!(text.contains("Google Scholar, Publons"));
    }
}
