//! Nodes and static routing.
//!
//! A node is a host or router with a per-destination routing table and an
//! optional default route. Routing is static: tables are filled once at
//! construction time by [`crate::topology`] helpers (or by hand for
//! custom topologies).

use crate::ids::{LinkId, NodeId};

/// A host or router.
///
/// The routing table is dense: slot `dst.index()` holds the out-link for
/// `dst`, so [`Node::route`] — which runs for every packet at every hop —
/// is one bounds-checked load. Tables are not tiny: a parking-lot router
/// serving 1 024 flows holds ~2 048 entries, so a search would cost
/// eleven dependent loads per hop. The table is only as long as the
/// largest destination routed through this node; a host with just a
/// default route keeps it empty. [`crate::sim::Simulator::add_route`]
/// rejects destinations that are not nodes of the simulator, which
/// bounds the table by the node count.
#[derive(Debug, Default, Clone)]
pub struct Node {
    /// Next hop by destination index; `None` falls back to the default.
    routes: Vec<Option<LinkId>>,
    default_route: Option<LinkId>,
}

impl Node {
    /// An empty node with no routes.
    pub fn new() -> Self {
        Node::default()
    }

    /// Install a route: packets for `dst` leave on `link`. Re-adding a
    /// destination replaces its entry.
    pub fn add_route(&mut self, dst: NodeId, link: LinkId) {
        if self.routes.len() <= dst.index() {
            self.routes.resize(dst.index() + 1, None);
        }
        self.routes[dst.index()] = Some(link);
    }

    /// Install the default route used when no per-destination entry
    /// matches (typical for stub hosts with a single uplink).
    pub fn set_default_route(&mut self, link: LinkId) {
        self.default_route = Some(link);
    }

    /// Outgoing link for `dst`, if the node knows one.
    #[inline]
    pub fn route(&self, dst: NodeId) -> Option<LinkId> {
        self.routes
            .get(dst.index())
            .copied()
            .flatten()
            .or(self.default_route)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specific_route_wins_over_default() {
        let mut n = Node::new();
        let dst = NodeId::from_index(7);
        let specific = LinkId::from_index(1);
        let fallback = LinkId::from_index(2);
        n.set_default_route(fallback);
        n.add_route(dst, specific);
        assert_eq!(n.route(dst), Some(specific));
        assert_eq!(n.route(NodeId::from_index(8)), Some(fallback));
    }

    #[test]
    fn no_route_when_empty() {
        let n = Node::new();
        assert_eq!(n.route(NodeId::from_index(0)), None);
    }

    #[test]
    fn sparse_out_of_order_routes_resolve_and_holes_fall_back() {
        let mut n = Node::new();
        let fallback = LinkId::from_index(9);
        n.set_default_route(fallback);
        n.add_route(NodeId::from_index(40), LinkId::from_index(4));
        n.add_route(NodeId::from_index(3), LinkId::from_index(1));
        n.add_route(NodeId::from_index(17), LinkId::from_index(2));
        assert_eq!(n.route(NodeId::from_index(3)), Some(LinkId::from_index(1)));
        assert_eq!(n.route(NodeId::from_index(17)), Some(LinkId::from_index(2)));
        assert_eq!(n.route(NodeId::from_index(40)), Some(LinkId::from_index(4)));
        // Holes inside the table and indices past its end both use the
        // default route.
        assert_eq!(n.route(NodeId::from_index(0)), Some(fallback));
        assert_eq!(n.route(NodeId::from_index(18)), Some(fallback));
        assert_eq!(n.route(NodeId::from_index(41)), Some(fallback));
        assert_eq!(n.route(NodeId::from_index(1_000_000)), Some(fallback));
    }

    #[test]
    fn re_adding_a_destination_replaces_its_entry() {
        let mut n = Node::new();
        let dst = NodeId::from_index(5);
        n.add_route(dst, LinkId::from_index(1));
        n.add_route(dst, LinkId::from_index(2));
        assert_eq!(n.route(dst), Some(LinkId::from_index(2)));
        assert_eq!(n.route(NodeId::from_index(4)), None);
    }

    #[test]
    fn default_route_alone_keeps_the_table_empty() {
        let mut n = Node::new();
        let up = LinkId::from_index(0);
        n.set_default_route(up);
        assert!(n.routes.is_empty());
        assert_eq!(n.route(NodeId::from_index(0)), Some(up));
        assert_eq!(n.route(NodeId::from_index(123)), Some(up));
    }
}
