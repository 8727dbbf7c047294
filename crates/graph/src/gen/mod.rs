//! Deterministic synthetic graph generators.
//!
//! These stand in for the paper's eight multi-gigabyte real-world datasets
//! (see DESIGN.md §3/§4). Each generator targets the structural properties
//! that make graph reordering interesting: sparsity, small diameter, skewed
//! degree distribution, and — crucially for Gorder's sibling score — many
//! pairs of nodes sharing common in-neighbours.
//!
//! All generators take an explicit seed and are deterministic given it.

mod copying;
mod er;
mod pref_attach;
mod rmat;
mod sbm;
mod web;

pub use copying::copying_model;
pub use er::erdos_renyi;
pub(crate) use pref_attach::preferential_attachment_edges;
pub use pref_attach::{preferential_attachment, PrefAttachConfig};
pub use rmat::{rmat, RmatConfig};
pub use sbm::stochastic_block_model;
pub(crate) use sbm::stochastic_block_model_edges;
pub use web::{web_graph, WebGraphConfig};
