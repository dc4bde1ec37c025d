//! Geo-aware placement: named regions, a per-region-pair latency/jitter
//! matrix, and asymmetric inter-region bandwidth/loss multipliers.
//!
//! A [`RegionMap`] places subscribers in named regions and describes, per
//! *ordered* region pair, the extra network behaviour a delivery crossing
//! that pair experiences (see [`RegionLink`]). The map layers *under* the
//! per-topic delay/loss model of [`crate::Network`]: the base model still
//! draws its delays and drops from the base RNG stream in the exact
//! pre-region order, and only deliveries whose region pair carries a
//! non-identity link draw anything extra — from the domain-separated fault
//! stream, never the base stream. [`RegionMap::uniform`] (the default)
//! therefore leaves every schedule bit-identical to a region-less network.
//!
//! Region-scoped *disasters* (whole-region outage, inter-region partition,
//! degraded trans-oceanic links) are fault-plan rules resolved against
//! this map — see [`crate::fault`].

use std::collections::BTreeMap;

use crate::pubsub::SubscriberId;

/// Extra behaviour of deliveries crossing one *ordered* region pair
/// (`from` region → `to` region). Asymmetric by construction: the reverse
/// direction is a separate link, so trans-oceanic bandwidth asymmetry is
/// expressible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionLink {
    /// Extra one-way propagation delay added to every delivery, in
    /// virtual ms.
    pub extra_delay_ms: u64,
    /// Extra uniform jitter `[0, jitter_ms]` added on top, drawn from the
    /// fault RNG stream (never the base stream).
    pub jitter_ms: u64,
    /// Extra per-delivery drop probability on this pair.
    pub loss_rate: f64,
    /// Bandwidth multiplier in percent applied to the *base* delay+jitter
    /// portion: `100` is identity, `250` models a pipe 2.5× slower in
    /// this direction.
    pub delay_factor_pct: u32,
}

impl RegionLink {
    /// The identity link: no extra delay, jitter, loss, or slow-down.
    /// Same-region traffic and unconfigured pairs behave like this.
    pub const IDENTITY: RegionLink = RegionLink {
        extra_delay_ms: 0,
        jitter_ms: 0,
        loss_rate: 0.0,
        delay_factor_pct: 100,
    };

    /// Is this link behaviourally the identity (adds nothing)?
    pub fn is_identity(&self) -> bool {
        self.extra_delay_ms == 0
            && self.jitter_ms == 0
            && self.loss_rate <= 0.0
            && self.delay_factor_pct == 100
    }
}

impl Default for RegionLink {
    fn default() -> Self {
        RegionLink::IDENTITY
    }
}

/// Placement of subscribers in named regions plus the per-region-pair
/// link matrix. See the module docs for the layering and bit-identity
/// guarantees.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionMap {
    /// Region names; a region's index is its identity. Index 0 is the
    /// default region of unplaced subscribers.
    regions: Vec<String>,
    /// Subscriber placement (raw subscriber id → region index).
    placement: BTreeMap<u64, usize>,
    /// Non-identity links, keyed by ordered `(from, to)` region indices.
    links: BTreeMap<(usize, usize), RegionLink>,
}

impl Default for RegionMap {
    fn default() -> Self {
        RegionMap::uniform()
    }
}

impl RegionMap {
    /// The uniform map: a single region, no links. Bit-identical to a
    /// network with no notion of place — it draws no extra randomness and
    /// adds no delay.
    pub fn uniform() -> Self {
        RegionMap {
            regions: vec!["global".to_owned()],
            placement: BTreeMap::new(),
            links: BTreeMap::new(),
        }
    }

    /// A map with the given named regions (index order preserved; the
    /// first is the default region) and no links yet.
    pub fn named(regions: &[&str]) -> Self {
        let mut map = RegionMap {
            regions: Vec::new(),
            placement: BTreeMap::new(),
            links: BTreeMap::new(),
        };
        for r in regions {
            map.add_region(r);
        }
        if map.regions.is_empty() {
            map.regions.push("global".to_owned());
        }
        map
    }

    /// Region names in index order.
    pub fn region_names(&self) -> &[String] {
        &self.regions
    }

    /// The index of `name`, if declared.
    pub fn region_index(&self, name: &str) -> Option<usize> {
        self.regions.iter().position(|r| r == name)
    }

    /// Declares a region (idempotent), returning its index.
    pub fn add_region(&mut self, name: &str) -> usize {
        if let Some(i) = self.region_index(name) {
            return i;
        }
        self.regions.push(name.to_owned());
        self.regions.len() - 1
    }

    /// Places `sub` in `name` (declaring the region if needed).
    pub fn place(&mut self, sub: SubscriberId, name: &str) {
        let idx = self.add_region(name);
        self.placement.insert(sub.raw(), idx);
    }

    /// The region index of `sub` (the default region 0 when unplaced).
    pub fn region_of(&self, sub: SubscriberId) -> usize {
        self.placement.get(&sub.raw()).copied().unwrap_or(0)
    }

    /// Sets the directed link `from → to` (declaring regions as needed).
    /// Identity links are *removed*, so equal behaviour is equal maps.
    pub fn set_link(&mut self, from: &str, to: &str, link: RegionLink) {
        let f = self.add_region(from);
        let t = self.add_region(to);
        if link.is_identity() {
            self.links.remove(&(f, t));
        } else {
            self.links.insert((f, t), link);
        }
    }

    /// Sets `from → to` *and* `to → from` to the same link.
    pub fn set_link_symmetric(&mut self, a: &str, b: &str, link: RegionLink) {
        self.set_link(a, b, link);
        self.set_link(b, a, link);
    }

    /// The directed link between two region indices. Same-region and
    /// unconfigured pairs are the identity.
    pub fn link(&self, from: usize, to: usize) -> RegionLink {
        if from == to {
            return RegionLink::IDENTITY;
        }
        self.links
            .get(&(from, to))
            .copied()
            .unwrap_or(RegionLink::IDENTITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_map_is_one_region_and_default() {
        let map = RegionMap::uniform();
        assert_eq!(map, RegionMap::default());
        assert_eq!(map.region_names().len(), 1);
        assert_eq!(map.region_of(SubscriberId::from_raw(7)), 0);
        assert!(map.link(0, 0).is_identity());
    }

    #[test]
    fn placement_and_links_resolve_asymmetrically() {
        let mut map = RegionMap::named(&["us-east", "eu-west"]);
        let a = SubscriberId::from_raw(1);
        let b = SubscriberId::from_raw(2);
        map.place(a, "us-east");
        map.place(b, "eu-west");
        map.set_link(
            "us-east",
            "eu-west",
            RegionLink {
                extra_delay_ms: 70,
                ..RegionLink::IDENTITY
            },
        );
        let (us, eu) = (map.region_of(a), map.region_of(b));
        assert_eq!(map.link(us, eu).extra_delay_ms, 70);
        // The reverse direction was never configured: identity.
        assert!(map.link(eu, us).is_identity());
        assert_eq!(map.region_names()[eu], "eu-west");
    }

    #[test]
    fn identity_links_leave_the_map_as_it_was() {
        let linkless = RegionMap::named(&["a", "b"]);
        let mut map = linkless.clone();
        map.set_link("a", "b", RegionLink::IDENTITY);
        assert_eq!(map, linkless);
        map.set_link(
            "a",
            "b",
            RegionLink {
                loss_rate: 0.5,
                ..RegionLink::IDENTITY
            },
        );
        assert_ne!(map, linkless);
        map.set_link("a", "b", RegionLink::IDENTITY);
        assert_eq!(map, linkless);
    }

    #[test]
    fn declared_regions_keep_index_order() {
        let mut map = RegionMap::named(&["x", "y"]);
        assert_eq!(map.add_region("x"), 0);
        assert_eq!(map.add_region("z"), 2);
        assert_eq!(map.region_names(), &["x", "y", "z"]);
    }
}
