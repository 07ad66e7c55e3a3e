//! # mako-linalg
//!
//! Dense linear-algebra substrate for the Mako quantum-chemistry system,
//! implemented from scratch (no BLAS/LAPACK).
//!
//! The Mako paper rearchitects DFT so that its heavy phases are matrix
//! multiplications executed by tensor cores; the surrounding workflow still
//! needs a dense toolbox: GEMM (the host-side reference used to validate the
//! simulated-accelerator kernels), a symmetric eigensolver (Fock matrix
//! diagonalization), Cholesky factorization, and symmetric matrix functions
//! (Löwdin orthogonalization `S^{-1/2}`).
//!
//! Everything operates on the row-major [`Matrix`] type. The GEMM seam is
//! four functions: [`gemm()`] (allocating) and [`gemm_into`] (α/β into the
//! caller's `C`) run the packed-tile [`microkernel`] engine (BLIS-style
//! 5-loop blocking around an `MR × NR` register tile, AVX2 or generic kernel
//! selected at startup); [`gemm_rounded_engine`] is the same engine's
//! rounded-operand mode, the numerical executor behind the simulated
//! tensor-core GEMMs in `mako-kernels` (operand rounding applied by the
//! caller); [`gemm_naive`] is the oracle.

pub mod cholesky;
pub mod eigen;
pub mod funcs;
pub mod gemm;
pub mod matrix;
pub mod microkernel;

pub use cholesky::{cholesky, solve_cholesky};
pub use eigen::{eigh, EigenDecomposition};
pub use funcs::{sym_func, sym_inv_sqrt, sym_inv_sqrt_diag, sym_sqrt, OrthFactor};
pub use gemm::{gemm, gemm_into, gemm_naive, Transpose};
pub use matrix::{transpose_extend, Matrix};
pub use microkernel::{gemm_rounded_engine, kernel_name, selected_kernel, KernelId};

/// Errors surfaced by the linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible with the requested operation.
    ShapeMismatch {
        /// Description of the expectation that was violated.
        context: &'static str,
    },
    /// The QL iteration failed to converge within the iteration budget.
    NoConvergence {
        /// Eigenvalue index being worked on when the budget ran out.
        index: usize,
    },
    /// An eigenvalue came out NaN or infinite: the input held a non-finite
    /// element.
    NonFinite {
        /// Index of the offending eigenvalue, before sorting.
        index: usize,
    },
    /// A matrix required to be positive definite was not.
    NotPositiveDefinite {
        /// Pivot index at which the failure was detected.
        pivot: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { context } => write!(f, "shape mismatch: {context}"),
            LinalgError::NoConvergence { index } => {
                write!(f, "eigensolver failed to converge at index {index}")
            }
            LinalgError::NonFinite { index } => {
                write!(f, "eigensolver produced a non-finite eigenvalue at index {index}")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix not positive definite (pivot {pivot})")
            }
        }
    }
}

impl std::error::Error for LinalgError {}
