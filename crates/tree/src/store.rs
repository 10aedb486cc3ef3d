//! Instance stores of tree-plan nodes, bucketed by an equality-join key.
//!
//! When the parent of a node joins its two children through an equality
//! predicate `a.x == b.y` (`a` in one subtree, `b` in the other, neither
//! under Kleene closure), both children's stores are *keyed*: an instance
//! is bucketed by the [`index_key`] of its own side's attribute, and a new
//! instance at the sibling probes the one bucket holding that same key.
//! The probe yields a superset of the instances the full merge check can
//! accept, in insertion order, so keyed and flat stores produce the same
//! merges in the same order.

use cep_core::instance::{retain_or_retire, Instance, InstanceArena};
use cep_core::matches::Binding;
use cep_core::value::{index_key, IndexKey};
use std::collections::HashMap;

/// Where an instance lives in a [`NodeStore`], and which sibling instances
/// it may join: the same slot, looked up in the sibling's store.
#[derive(Debug, Clone)]
pub(crate) enum Slot {
    /// The node's store is not keyed: the instance goes into, and probes,
    /// one flat vector.
    Flat,
    /// The instance's join attribute has this key.
    Key(IndexKey),
    /// The join attribute is missing or `NaN`: `==` holds for nothing, so
    /// the instance is kept (it still counts as live state) but never
    /// probed, and its probes find nothing.
    Unkeyed,
}

/// The instances stored at one tree node, within the window.
#[derive(Debug, Default)]
pub(crate) struct NodeStore {
    /// `(element, attribute)` whose value keys this store; `None` keeps
    /// one flat vector.
    key: Option<(usize, usize)>,
    /// The whole store when flat; the never-probed unkeyed instances when
    /// keyed.
    flat: Vec<Instance>,
    buckets: HashMap<IndexKey, Vec<Instance>>,
    len: usize,
}

impl NodeStore {
    /// A store keyed by `key`'s `(element, attribute)`, or flat.
    pub(crate) fn new(key: Option<(usize, usize)>) -> NodeStore {
        NodeStore {
            key,
            ..NodeStore::default()
        }
    }

    /// Number of stored instances.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The slot of `inst` under this store's key.
    pub(crate) fn slot_of(&self, inst: &Instance) -> Slot {
        let Some((elem, attr)) = self.key else {
            return Slot::Flat;
        };
        let key = match &inst.bindings[elem] {
            Some(Binding::One(e)) => e.attr(attr).and_then(index_key),
            _ => unreachable!("keyed stores bind their key element singly"),
        };
        key.map_or(Slot::Unkeyed, Slot::Key)
    }

    /// Appends `inst` at `slot` (from [`NodeStore::slot_of`]).
    pub(crate) fn insert(&mut self, slot: &Slot, inst: Instance) {
        self.len += 1;
        match slot {
            Slot::Flat | Slot::Unkeyed => self.flat.push(inst),
            Slot::Key(k) => match self.buckets.get_mut(k) {
                Some(bucket) => bucket.push(inst),
                None => {
                    self.buckets.insert(k.clone(), vec![inst]);
                }
            },
        }
    }

    /// The stored instances a sibling instance in `slot` may join, in
    /// insertion order.
    pub(crate) fn probe(&self, slot: &Slot) -> &[Instance] {
        match slot {
            Slot::Flat => &self.flat,
            Slot::Key(k) => self.buckets.get(k).map_or(&[], Vec::as_slice),
            Slot::Unkeyed => &[],
        }
    }

    /// Every instance of a flat store, in insertion order (a Kleene leaf
    /// scans its own store to grow accumulators).
    pub(crate) fn flat(&self) -> &[Instance] {
        debug_assert!(self.key.is_none(), "only flat stores are scanned whole");
        &self.flat
    }

    /// Every stored instance, flat ones first, buckets in no set order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Instance> {
        self.flat.iter().chain(self.buckets.values().flatten())
    }

    /// Retains the instances `keep` accepts, retiring the rest into
    /// `arena`; emptied buckets are dropped.
    pub(crate) fn retain(
        &mut self,
        arena: &mut InstanceArena,
        mut keep: impl FnMut(&Instance) -> bool,
    ) {
        retain_or_retire(&mut self.flat, arena, &mut keep);
        let mut len = self.flat.len();
        self.buckets.retain(|_, bucket| {
            retain_or_retire(bucket, arena, &mut keep);
            len += bucket.len();
            !bucket.is_empty()
        });
        self.len = len;
    }
}
