//! # ecost-ml — from-scratch machine-learning substrate
//!
//! The paper builds its self-tuning prediction (STP) models in Weka: linear
//! regression (LR), a reduced-error-pruning regression tree (REPTree) and a
//! multilayer perceptron (MLP), plus PCA and hierarchical clustering for the
//! feature study of §3.2 and a lookup table (LkT). Nothing of the sort is
//! assumed to exist here — this crate implements all of it on a small dense
//! linear-algebra core:
//!
//! * [`linalg`] — matrices, Cholesky solve, Jacobi eigendecomposition;
//! * [`preprocess`] — z-score scaling, shuffles, train/test splits;
//! * [`pca`] / [`hcluster`] — the Fig 1 pipeline;
//! * [`linreg`], [`reptree`], [`mlp`], [`lookup`], [`knn`] — the models,
//!   behind the common [`model::Regressor`]/[`model::Classifier`] traits;
//! * [`dataset`] / [`metrics`] — row storage, APE/RMSE/R².
//!
//! Determinism: anything stochastic (MLP init, shuffles) takes an explicit
//! RNG.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod hcluster;
pub mod knn;
pub mod linalg;
pub mod linreg;
pub mod lookup;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod pca;
pub mod preprocess;
pub mod reptree;

pub use dataset::Dataset;
pub use knn::KnnClassifier;
pub use linalg::Matrix;
pub use linreg::LinearRegression;
pub use lookup::LookupTable;
pub use metrics::{mean_absolute_percentage_error, r2_score, rmse};
pub use mlp::{Mlp, MlpConfig};
pub use model::Regressor;
pub use pca::Pca;
pub use preprocess::ZScore;
pub use reptree::{RepTree, RepTreeConfig};
