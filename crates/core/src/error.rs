//! Error type for DSL construction and validation.

use std::fmt;

/// Errors raised while building or validating Snowflake programs.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreError {
    /// Two parts of a program disagree on dimensionality.
    DimMismatch {
        /// What was being combined.
        context: String,
        /// The two ranks that disagreed.
        expected: usize,
        got: usize,
    },
    /// A weight array extent was even; the center point must be unique.
    EvenWeightExtent { extent: usize },
    /// A weight array literal was ragged.
    RaggedWeights,
    /// A domain bound resolved outside the grid.
    DomainOutOfBounds { stencil: String, detail: String },
    /// A read or write lands outside a grid for some point of the domain.
    AccessOutOfBounds {
        stencil: String,
        grid: String,
        /// The dimension in which the access leaves the grid.
        dim: usize,
        /// The grid cell the violating domain point accesses; `None` when
        /// that cell's index does not fit in an `i64`.
        witness: Option<Vec<i64>>,
        detail: String,
    },
    /// An access inside its grid whose flat address arithmetic (offset ×
    /// stride, or a cursor over the domain) does not fit `isize`.
    AddressOverflow {
        stencil: String,
        grid: String,
        detail: String,
    },
    /// A stencil references a grid absent from the shape map / grid set.
    UnknownGrid { stencil: String, grid: String },
    /// A stride was negative (stride 0 means "pinned", > 0 steps).
    NegativeStride { stride: i64 },
    /// A backend name not present in the registry.
    UnknownBackend {
        /// The name that failed to resolve.
        name: String,
        /// Every name the registry does know.
        available: Vec<String>,
    },
    /// Backend-level failure (compilation, unavailable toolchain, …).
    Backend(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::DimMismatch {
                context,
                expected,
                got,
            } => write!(
                f,
                "dimension mismatch in {context}: expected rank {expected}, got {got}"
            ),
            CoreError::EvenWeightExtent { extent } => write!(
                f,
                "weight array extents must be odd so the center is unique; got {extent}"
            ),
            CoreError::RaggedWeights => write!(f, "weight array literal is ragged"),
            CoreError::DomainOutOfBounds { stencil, detail } => {
                write!(f, "stencil {stencil:?}: domain out of bounds: {detail}")
            }
            CoreError::AccessOutOfBounds {
                stencil,
                grid,
                dim,
                witness,
                detail,
            } => {
                write!(
                    f,
                    "stencil {stencil:?}: access to grid {grid:?} out of bounds in dim {dim}: \
                     {detail}"
                )?;
                match witness {
                    Some(cell) => write!(f, " (witness cell {cell:?})"),
                    None => Ok(()),
                }
            }
            CoreError::AddressOverflow {
                stencil,
                grid,
                detail,
            } => write!(
                f,
                "stencil {stencil:?}: address arithmetic on grid {grid:?} overflows: {detail}"
            ),
            CoreError::UnknownGrid { stencil, grid } => {
                write!(f, "stencil {stencil:?} references unknown grid {grid:?}")
            }
            CoreError::NegativeStride { stride } => {
                write!(f, "domain stride must be >= 0, got {stride}")
            }
            CoreError::UnknownBackend { name, available } => {
                write!(
                    f,
                    "unknown backend {name:?}; available: {}",
                    available.join(", ")
                )
            }
            CoreError::Backend(msg) => write!(f, "backend error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<snowflake_grid::GridError> for CoreError {
    fn from(e: snowflake_grid::GridError) -> Self {
        match e {
            snowflake_grid::GridError::UnknownGrid { name } => CoreError::UnknownGrid {
                stencil: String::new(),
                grid: name,
            },
            other => CoreError::Backend(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CoreError::UnknownGrid {
            stencil: "smooth".into(),
            grid: "beta_x".into(),
        };
        let s = e.to_string();
        assert!(s.contains("smooth") && s.contains("beta_x"));

        let e = CoreError::DimMismatch {
            context: "Stencil::new".into(),
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("expected rank 3"));
    }
}
