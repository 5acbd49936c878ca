//! TrajGAT-style encoder: quadtree topology + graph attention.
//!
//! Structure preserved from the original (Yao et al., KDD'22): a quadtree
//! over the city is pre-built; each trajectory becomes a graph whose nodes
//! are its points plus the quadtree ancestors of the cells they fall in,
//! and graph-attention layers propagate over (point→point sequence edges,
//! point→leaf membership edges, child→parent tree edges). The trajectory
//! embedding mean-pools the *point* nodes. Simplifications: 2 GAT layers
//! with a single head (the original uses multi-head transformers) and a
//! depth-capped tree — both keep the graph small enough for CPU tapes.
//!
//! Each trajectory's graph is built and encoded on its own child tape of
//! one [`Tape::fork`], so a batch's graphs run in parallel. Every child
//! adds exactly one term to each shared parameter (one `matmul` per
//! weight, one bias `add`), the rule under which the fork's gradients are
//! bit for bit one tape's.

use crate::features::point_features;
use crate::traits::{EncoderConfig, TrajectoryEncoder};
use lh_nn::layers::{GatLayer, Linear};
use lh_nn::{ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;
use traj_core::{Point, QuadTree, QuadTreeConfig, Trajectory, TrajectoryDataset};

/// Quadtree + GAT encoder.
pub struct TrajGatEncoder {
    tree: QuadTree,
    in_proj: Linear,
    gat1: GatLayer,
    gat2: GatLayer,
    head: Linear,
    embed_dim: usize,
}

/// Node feature width: `[x, y, is_point, depth_norm]`.
const NODE_DIM: usize = 4;

impl TrajGatEncoder {
    /// Builds the quadtree from every dataset point and registers params.
    pub fn new(
        config: EncoderConfig,
        dataset: &TrajectoryDataset,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Self {
        let points: Vec<Point> = dataset
            .trajectories()
            .iter()
            .flat_map(|t| t.points().iter().copied())
            .collect();
        let tree = QuadTree::build(
            &points,
            QuadTreeConfig {
                max_points: 64,
                max_depth: 4,
            },
        )
        .expect("dataset must contain points");
        let h = config.hidden_dim;
        TrajGatEncoder {
            tree,
            in_proj: Linear::new("trajgat.in", NODE_DIM, h, store, rng),
            gat1: GatLayer::new("trajgat.gat1", h, h, store, rng),
            gat2: GatLayer::new("trajgat.gat2", h, h, store, rng),
            head: Linear::new("trajgat.head", h, config.embed_dim, store, rng),
            embed_dim: config.embed_dim,
        }
    }

    /// The pre-built quadtree.
    pub fn tree(&self) -> &QuadTree {
        &self.tree
    }

    /// Builds the per-trajectory graph: node features and adjacency, in
    /// O(points · tree depth). Returns `(features, neighbors,
    /// num_point_nodes)`.
    fn build_graph(&self, traj: &Trajectory) -> (Tensor, Vec<Vec<usize>>, usize) {
        let feats = point_features(traj);
        let n_pts = feats.len();
        let max_depth = self.tree.depth().max(1) as f32;

        // Number the tree nodes on the points' paths in first-seen order,
        // after the points, and keep each path as graph indices. A graph
        // holds a few dozen tree nodes, so a linear scan finds one.
        let mut tree_nodes: Vec<usize> = Vec::new();
        let mut paths: Vec<Vec<usize>> = Vec::with_capacity(n_pts);
        for p in traj.points() {
            let path = self.tree.path_to_leaf(p);
            let path = path.iter().map(|&arena| {
                let slot = match tree_nodes.iter().position(|&t| t == arena) {
                    Some(slot) => slot,
                    None => {
                        tree_nodes.push(arena);
                        tree_nodes.len() - 1
                    }
                };
                n_pts + slot
            });
            paths.push(path.collect());
        }

        let total = n_pts + tree_nodes.len();
        let mut x = Tensor::zeros(total, NODE_DIM);
        for (i, f) in feats.iter().enumerate() {
            x.set(i, 0, f[0]);
            x.set(i, 1, f[1]);
            x.set(i, 2, 1.0); // point marker
        }
        for (j, &arena) in tree_nodes.iter().enumerate() {
            let node = &self.tree.nodes()[arena];
            let (cx, cy) = node.bbox.center();
            x.set(n_pts + j, 0, cx as f32);
            x.set(n_pts + j, 1, cy as f32);
            x.set(n_pts + j, 3, node.depth as f32 / max_depth);
        }

        // Each list starts with its self-loop, and an edge is appended
        // once, in first-seen order: a duplicate is already in the list.
        let mut neighbors: Vec<Vec<usize>> = (0..total).map(|i| vec![i]).collect();
        let mut connect = |a: usize, b: usize| {
            if !neighbors[a].contains(&b) {
                neighbors[a].push(b);
            }
            if !neighbors[b].contains(&a) {
                neighbors[b].push(a);
            }
        };
        // Sequence edges between consecutive points.
        for i in 1..n_pts {
            connect(i - 1, i);
        }
        // Membership edges point → every tree node on its path, and tree
        // child → parent edges along the path.
        for (i, path) in paths.iter().enumerate() {
            for &node in path {
                connect(i, node);
            }
            for w in path.windows(2) {
                connect(w[0], w[1]);
            }
        }
        (x, neighbors, n_pts)
    }

    /// One trajectory's graph, encoded and mean-pooled over its point
    /// nodes → `1×h`.
    fn encode_graph(&self, tape: &mut Tape, store: &ParamStore, traj: &Trajectory) -> Var {
        let (x, neighbors, n_pts) = self.build_graph(traj);
        let xv = tape.input(x);
        let h0 = self.in_proj.forward(tape, store, xv);
        let h0a = tape.tanh(h0);
        let h1 = self.gat1.forward(tape, store, h0a, &neighbors);
        let h1a = tape.leaky_relu(h1, 0.2);
        let h2 = self.gat2.forward(tape, store, h1a, &neighbors);
        let mut pool = Tensor::zeros(1, neighbors.len());
        for c in 0..n_pts {
            pool.set(0, c, 1.0 / n_pts as f32);
        }
        let poolv = tape.input(pool);
        tape.matmul(poolv, h2)
    }
}

impl TrajectoryEncoder for TrajGatEncoder {
    fn name(&self) -> &'static str {
        "trajgat"
    }

    fn output_dim(&self) -> usize {
        self.embed_dim
    }

    fn encode_batch(&self, tape: &mut Tape, store: &ParamStore, trajs: &[&Trajectory]) -> Var {
        assert!(!trajs.is_empty(), "empty batch");
        let rows = tape.fork(store, trajs.len(), |child, i| {
            self.encode_graph(child, store, trajs[i])
        });
        let stacked = tape.stack_rows(&rows);
        self.head.forward(tape, store, stacked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use traj_core::normalize::Normalizer;

    fn toy_dataset() -> TrajectoryDataset {
        let mut trajs = Vec::new();
        for i in 0..6 {
            let o = i as f64 * 3.0;
            trajs.push(
                Trajectory::from_xy(&[(o, 0.0), (o + 1.0, 2.0), (o + 2.0, 1.0), (o + 3.0, 4.0)])
                    .unwrap(),
            );
        }
        let ds = TrajectoryDataset::new("toy", trajs);
        let n = Normalizer::fit(&ds).unwrap();
        n.dataset(&ds)
    }

    fn build() -> (ParamStore, TrajGatEncoder, TrajectoryDataset) {
        let ds = toy_dataset();
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let enc = TrajGatEncoder::new(EncoderConfig::default(), &ds, &mut store, &mut rng);
        (store, enc, ds)
    }

    #[test]
    fn output_shape_and_finiteness() {
        let (store, enc, ds) = build();
        let refs: Vec<&Trajectory> = ds.trajectories().iter().take(3).collect();
        let mut tape = Tape::new();
        let out = enc.encode_batch(&mut tape, &store, &refs);
        assert_eq!(tape.value(out).shape(), (3, 16));
        assert!(tape.value(out).all_finite());
    }

    #[test]
    fn graph_includes_points_and_tree_nodes() {
        let (_, enc, ds) = build();
        let t = &ds.trajectories()[0];
        let (x, neighbors, n_pts) = enc.build_graph(t);
        assert_eq!(n_pts, t.len());
        assert!(x.rows() > n_pts, "graph must contain tree nodes");
        assert_eq!(neighbors.len(), x.rows());
        // Point marker column distinguishes node kinds.
        assert_eq!(x.get(0, 2), 1.0);
        assert_eq!(x.get(n_pts, 2), 0.0);
        // Every node has a self-loop.
        for (i, nb) in neighbors.iter().enumerate() {
            assert!(nb.contains(&i), "node {i} lacks a self-loop");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // i and i−1 both indexed
    fn sequence_edges_exist() {
        let (_, enc, ds) = build();
        let t = &ds.trajectories()[0];
        let (_, neighbors, n_pts) = enc.build_graph(t);
        for i in 1..n_pts {
            assert!(neighbors[i].contains(&(i - 1)));
        }
    }

    #[test]
    fn embeddings_distinguish_trajectories() {
        let (store, enc, ds) = build();
        let refs: Vec<&Trajectory> = ds.trajectories().iter().take(2).collect();
        let mut tape = Tape::new();
        let out = enc.encode_batch(&mut tape, &store, &refs);
        let v = tape.value(out);
        let diff: f32 = v
            .row(0)
            .iter()
            .zip(v.row(1))
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-4);
    }

    /// 72 points clustered near the origin plus two spread trajectories:
    /// enough for the quadtree to split to its depth cap, so graphs carry
    /// tree nodes at every depth and hub nodes with long neighbour lists.
    fn deep_dataset() -> TrajectoryDataset {
        let trajs = (0..8)
            .map(|i| {
                let pts: Vec<(f64, f64)> = (0..12)
                    .map(|s| {
                        let (s, i) = (s as f64, i as f64);
                        if i < 6.0 {
                            (0.01 * s + 0.002 * i, 0.01 * (s % 3.0) + 0.003 * i)
                        } else {
                            (0.08 * s, 1.0 - 0.07 * s * (i - 5.0))
                        }
                    })
                    .collect();
                Trajectory::from_xy(&pts).unwrap()
            })
            .collect();
        TrajectoryDataset::new("deep", trajs)
    }

    /// FNV-1a over every graph of `ds`: point count, feature bits and
    /// neighbour lists, in order.
    fn graphs_hash(enc: &TrajGatEncoder, ds: &TrajectoryDataset) -> u64 {
        let mut h = traj_core::codec::Fnv64::default();
        for t in ds.trajectories() {
            let (x, neighbors, n_pts) = enc.build_graph(t);
            h.write(&(n_pts as u64).to_le_bytes());
            for v in x.data() {
                h.write(&v.to_bits().to_le_bytes());
            }
            for nb in &neighbors {
                h.write(&(nb.len() as u64).to_le_bytes());
                for &j in nb {
                    h.write(&(j as u64).to_le_bytes());
                }
            }
        }
        h.finish()
    }

    /// Node order and neighbour order decide the fused GAT op's CSR, and so
    /// every trained TrajGAT bit: both are pinned here as `build_graph`
    /// produced them before it used an index map.
    #[test]
    fn graphs_are_pinned() {
        let (_, enc, ds) = build();
        let (x, neighbors, n_pts) = enc.build_graph(&ds.trajectories()[0]);
        assert_eq!(n_pts, 4);
        assert_eq!(
            neighbors,
            [
                vec![0, 1, 4],
                vec![1, 0, 2, 4],
                vec![2, 1, 3, 4],
                vec![3, 2, 4],
                vec![4, 0, 1, 2, 3]
            ]
        );
        let bits: Vec<u32> = x.data().iter().map(|v| v.to_bits()).collect();
        #[rustfmt::skip]
        assert_eq!(bits, [
            0x0, 0x0, 0x3f800000, 0x0,
            0x3d638e39, 0x3de38e39, 0x3f800000, 0x0,
            0x3de38e39, 0x3d638e39, 0x3f800000, 0x0,
            0x3e2aaaab, 0x3e638e39, 0x3f800000, 0x0,
            0x3f000000, 0x3de38e39, 0x0, 0x0,
        ]);
        assert_eq!(graphs_hash(&enc, &ds), 0x91e75069097505cf);

        let deep = deep_dataset();
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let enc = TrajGatEncoder::new(EncoderConfig::default(), &deep, &mut store, &mut rng);
        assert_eq!(enc.tree().depth(), 4);
        let (_, neighbors, n_pts) = enc.build_graph(&deep.trajectories()[4]);
        assert_eq!(n_pts, 12);
        #[rustfmt::skip]
        assert_eq!(neighbors, [
            vec![0, 1, 12, 13, 14, 15, 16], vec![1, 0, 2, 12, 13, 14, 15, 16],
            vec![2, 1, 3, 12, 13, 14, 15, 16], vec![3, 2, 4, 12, 13, 14, 15, 16],
            vec![4, 3, 5, 12, 13, 14, 15, 16], vec![5, 4, 6, 12, 13, 14, 15, 17],
            vec![6, 5, 7, 12, 13, 14, 15, 17], vec![7, 6, 8, 12, 13, 14, 15, 17],
            vec![8, 7, 9, 12, 13, 14, 15, 17], vec![9, 8, 10, 12, 13, 14, 15, 17],
            vec![10, 9, 11, 12, 13, 14, 15, 17], vec![11, 10, 12, 13, 14, 18],
            vec![12, 0, 13, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
            vec![13, 0, 12, 14, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
            vec![14, 0, 13, 15, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 18],
            vec![15, 0, 14, 16, 1, 2, 3, 4, 5, 17, 6, 7, 8, 9, 10],
            vec![16, 0, 15, 1, 2, 3, 4], vec![17, 5, 15, 6, 7, 8, 9, 10], vec![18, 11, 14],
        ]);
        assert_eq!(graphs_hash(&enc, &deep), 0x7b7fb0761c1a54ae);
    }

    /// The single-tape loop `encode_batch` forks: every graph on `tape`
    /// itself, in batch order.
    fn encode_on_one_tape(
        enc: &TrajGatEncoder,
        tape: &mut Tape,
        store: &ParamStore,
        trajs: &[&Trajectory],
    ) -> Var {
        let rows: Vec<Var> = trajs
            .iter()
            .map(|t| enc.encode_graph(tape, store, t))
            .collect();
        let stacked = tape.stack_rows(&rows);
        enc.head.forward(tape, store, stacked)
    }

    #[test]
    fn forked_batch_matches_one_tape_bit_for_bit() {
        let ds = deep_dataset();
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let enc = TrajGatEncoder::new(EncoderConfig::default(), &ds, &mut store, &mut rng);
        let refs: Vec<&Trajectory> = ds.trajectories().iter().collect();
        let r = Tensor::uniform(refs.len(), 16, 1.0, &mut rng);
        let run = |forked: bool| {
            let mut tape = Tape::new();
            let out = if forked {
                enc.encode_batch(&mut tape, &store, &refs)
            } else {
                encode_on_one_tape(&enc, &mut tape, &store, &refs)
            };
            let rv = tape.input(r.clone());
            let m = tape.mul(out, rv);
            let loss = tape.sum_all(m);
            tape.backward(loss);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let mut got = vec![("out".to_string(), bits(tape.value(out)))];
            for (name, v) in tape.watched() {
                got.push((name.clone(), bits(&tape.grad(*v))));
            }
            got
        };
        let (forked, one) = (run(true), run(false));
        assert_eq!(forked.len(), 1 + 10, "output, then in, gat1, gat2 and head");
        assert_eq!(forked, one);
    }

    #[test]
    fn tree_depth_capped() {
        let (_, enc, _) = build();
        assert!(enc.tree().depth() <= 4);
    }
}
