//! # cep-tree
//!
//! Tree-based CEP evaluation after ZStream (Mei & Madden \[35\]), modified —
//! as in Section 2.3 of *Join Query Optimization Techniques for CEP
//! Applications* (VLDB 2018) — from a batch-iterator design to an
//! instance-based design supporting arbitrary time windows.
//!
//! The engine follows a [`TreePlan`](cep_core::plan::TreePlan): primitive
//! events enter at leaves, partial matches are combined at internal nodes
//! when both children have compatible instances, and full matches surface
//! at the root. Unlike the NFA, no single processing order is imposed: any
//! arrival order is handled by the symmetric join at each node.
//!
//! ## Keyed sibling stores
//!
//! Where a node's parent joins it to its sibling through an equality
//! predicate `a.x == b.y` (the first one in predicate order between
//! non-Kleene elements of the two subtrees), both sibling stores are
//! hash-keyed by that join: an instance is bucketed by the canonical
//! [`index_key`](cep_core::value::index_key) of its own side's attribute
//! — the same key the delta backend's posting lists use — and a new
//! instance probes only the sibling bucket holding its key, instead of
//! scanning every stored sibling. Candidates still pass the full merge
//! check (so cross-kind `Int`/`Float` equality and key collisions stay
//! exact), buckets keep insertion order (so output is unchanged), and a
//! missing or `NaN` join attribute joins nothing. Nodes without such a
//! predicate, and Kleene leaves, keep one flat store.
//!
//! Strategy support mirrors `cep-nfa` with one documented difference:
//! under skip-till-next-match the tree engine realizes single-use events
//! by consumption alone (matches stay disjoint, but intermediate instances
//! may still fork before the first emission claims their events).

#![warn(missing_docs)]

mod engine;
mod store;

pub use engine::TreeEngine;

#[cfg(test)]
mod tests;
