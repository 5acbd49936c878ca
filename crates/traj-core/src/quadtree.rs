//! A point-region quadtree over 2-D space.
//!
//! TrajGAT (paper Table II) preprocesses trajectories with a pre-built
//! quadtree over the city region and attaches trajectory points to its
//! leaves; the tree topology then becomes the graph the graph-attention
//! layers run on. This module builds that structure: leaves split when they
//! exceed `max_points` until `max_depth`.

use crate::bbox::BoundingBox;
use crate::error::{Result, TrajError};
use crate::point::Point;

/// Construction parameters for [`QuadTree`].
#[derive(Debug, Clone, Copy)]
pub struct QuadTreeConfig {
    /// Split a leaf when it holds more than this many seed points.
    pub max_points: usize,
    /// Hard depth cap (root is depth 0).
    pub max_depth: usize,
}

impl Default for QuadTreeConfig {
    fn default() -> Self {
        QuadTreeConfig {
            max_points: 16,
            max_depth: 8,
        }
    }
}

/// One node of the quadtree, stored in an arena (`Vec<Node>`).
#[derive(Debug, Clone)]
pub struct QuadNode {
    /// Region covered by the node.
    pub bbox: BoundingBox,
    /// Depth (root = 0).
    pub depth: usize,
    /// Parent arena index; `None` for the root.
    pub parent: Option<usize>,
    /// Child arena indices (`None` for leaves). Order: SW, SE, NW, NE.
    pub children: Option<[usize; 4]>,
    /// Number of seed points that fell in this node during construction.
    pub count: usize,
}

impl QuadNode {
    /// Whether the node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.children.is_none()
    }
}

/// Arena-allocated point-region quadtree.
#[derive(Debug, Clone)]
pub struct QuadTree {
    nodes: Vec<QuadNode>,
    config: QuadTreeConfig,
}

impl QuadTree {
    /// Builds the tree from seed points (typically every point of a training
    /// dataset) over their bounding box.
    pub fn build(points: &[Point], config: QuadTreeConfig) -> Result<Self> {
        if points.is_empty() {
            return Err(TrajError::DegenerateRegion);
        }
        if config.max_points == 0 {
            return Err(TrajError::InvalidConfig("max_points must be ≥ 1".into()));
        }
        let mut bbox = BoundingBox::empty();
        for p in points {
            bbox.extend(p.x, p.y);
        }
        // Inflate so boundary points are interior; handle the single-point
        // degenerate case with a unit box around it.
        let span = bbox.width().max(bbox.height());
        let margin = if span > 0.0 { span * 1e-9 + 1e-12 } else { 0.5 };
        let bbox = bbox.inflate(margin);

        let mut tree = QuadTree {
            nodes: vec![QuadNode {
                bbox,
                depth: 0,
                parent: None,
                children: None,
                count: points.len(),
            }],
            config,
        };
        let idxs: Vec<usize> = (0..points.len()).collect();
        tree.split_recursive(0, points, &idxs);
        Ok(tree)
    }

    fn split_recursive(&mut self, node: usize, points: &[Point], members: &[usize]) {
        let (depth, bbox) = (self.nodes[node].depth, self.nodes[node].bbox);
        if members.len() <= self.config.max_points || depth >= self.config.max_depth {
            return;
        }
        let (cx, cy) = bbox.center();
        let quadrants = [
            BoundingBox::new(bbox.min_x, bbox.min_y, cx, cy), // SW
            BoundingBox::new(cx, bbox.min_y, bbox.max_x, cy), // SE
            BoundingBox::new(bbox.min_x, cy, cx, bbox.max_y), // NW
            BoundingBox::new(cx, cy, bbox.max_x, bbox.max_y), // NE
        ];
        let mut buckets: [Vec<usize>; 4] = [vec![], vec![], vec![], vec![]];
        for &i in members {
            let p = &points[i];
            let east = p.x >= cx;
            let north = p.y >= cy;
            let q = match (north, east) {
                (false, false) => 0,
                (false, true) => 1,
                (true, false) => 2,
                (true, true) => 3,
            };
            buckets[q].push(i);
        }
        let mut child_ids = [0usize; 4];
        for q in 0..4 {
            let id = self.nodes.len();
            child_ids[q] = id;
            self.nodes.push(QuadNode {
                bbox: quadrants[q],
                depth: depth + 1,
                parent: Some(node),
                children: None,
                count: buckets[q].len(),
            });
        }
        self.nodes[node].children = Some(child_ids);
        for q in 0..4 {
            if !buckets[q].is_empty() {
                self.split_recursive(child_ids[q], points, &buckets[q]);
            }
        }
    }

    /// All nodes in arena order (root first).
    pub fn nodes(&self) -> &[QuadNode] {
        &self.nodes
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Arena index of the leaf containing `p` (clamping out-of-region points
    /// toward the nearest quadrant path).
    pub fn leaf_of(&self, p: &Point) -> usize {
        let mut cur = 0usize;
        while let Some(children) = self.nodes[cur].children {
            let (cx, cy) = self.nodes[cur].bbox.center();
            let east = p.x >= cx;
            let north = p.y >= cy;
            let q = match (north, east) {
                (false, false) => 0,
                (false, true) => 1,
                (true, false) => 2,
                (true, true) => 3,
            };
            cur = children[q];
        }
        cur
    }

    /// Path of arena indices from the root to the leaf containing `p`
    /// (inclusive). This is the ancestor chain TrajGAT-style models attend
    /// over.
    pub fn path_to_leaf(&self, p: &Point) -> Vec<usize> {
        let mut path = vec![0usize];
        let mut cur = 0usize;
        while let Some(children) = self.nodes[cur].children {
            let (cx, cy) = self.nodes[cur].bbox.center();
            let east = p.x >= cx;
            let north = p.y >= cy;
            let q = match (north, east) {
                (false, false) => 0,
                (false, true) => 1,
                (true, false) => 2,
                (true, true) => 3,
            };
            cur = children[q];
            path.push(cur);
        }
        path
    }

    /// Maximum depth reached.
    pub fn depth(&self) -> usize {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster_points() -> Vec<Point> {
        // Two dense clusters far apart: forces splits around each.
        let mut pts = Vec::new();
        for i in 0..40 {
            let o = i as f64 * 0.01;
            pts.push(Point::new(0.0 + o, 0.0 + o));
            pts.push(Point::new(100.0 - o, 100.0 - o));
        }
        pts
    }

    #[test]
    fn builds_and_splits() {
        let t = QuadTree::build(&cluster_points(), QuadTreeConfig::default()).unwrap();
        assert!(t.len() > 1, "80 points with max_points=16 must split");
        assert!(t.depth() >= 1);
        assert_eq!(t.nodes()[0].count, 80);
    }

    #[test]
    fn rejects_empty_and_bad_config() {
        assert!(QuadTree::build(&[], QuadTreeConfig::default()).is_err());
        assert!(QuadTree::build(
            &[Point::new(0.0, 0.0)],
            QuadTreeConfig {
                max_points: 0,
                max_depth: 3
            }
        )
        .is_err());
    }

    #[test]
    fn single_point_tree_is_root_only() {
        let t = QuadTree::build(&[Point::new(5.0, 5.0)], QuadTreeConfig::default()).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.leaf_of(&Point::new(5.0, 5.0)), 0);
    }

    #[test]
    fn leaf_of_is_a_leaf_and_contains_point() {
        let pts = cluster_points();
        let t = QuadTree::build(&pts, QuadTreeConfig::default()).unwrap();
        for p in &pts {
            let leaf = t.leaf_of(p);
            assert!(t.nodes()[leaf].is_leaf());
            assert!(t.nodes()[leaf].bbox.contains(p.x, p.y));
        }
    }

    #[test]
    fn path_starts_at_root_ends_at_leaf() {
        let pts = cluster_points();
        let t = QuadTree::build(&pts, QuadTreeConfig::default()).unwrap();
        let p = pts[0];
        let path = t.path_to_leaf(&p);
        assert_eq!(path[0], 0);
        assert_eq!(*path.last().unwrap(), t.leaf_of(&p));
        // Parent links are consistent along the path.
        for w in path.windows(2) {
            assert_eq!(t.nodes()[w[1]].parent, Some(w[0]));
        }
    }

    #[test]
    fn depth_cap_respected() {
        let pts: Vec<Point> = (0..500)
            .map(|i| Point::new((i % 7) as f64 * 1e-6, (i % 11) as f64 * 1e-6))
            .collect();
        let t = QuadTree::build(
            &pts,
            QuadTreeConfig {
                max_points: 1,
                max_depth: 3,
            },
        )
        .unwrap();
        assert!(t.depth() <= 3);
    }

    #[test]
    fn child_counts_sum_to_parent() {
        let pts = cluster_points();
        let t = QuadTree::build(&pts, QuadTreeConfig::default()).unwrap();
        for n in t.nodes() {
            if let Some(ch) = n.children {
                let sum: usize = ch.iter().map(|&c| t.nodes()[c].count).sum();
                assert_eq!(sum, n.count);
            }
        }
    }
}
