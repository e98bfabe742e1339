import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path as scipy_shortest_path

from poselift.errors import ConfigError, GraphStructureError
from poselift.skeleton import (SkeletonGraph, build_hybrid_adjacency, human36m_skeleton,
                               khop_adjacency, load_skeleton, save_skeleton,
                               shortest_path_hops, symmetric_matrix)


def chain(n):
    return SkeletonGraph(joint_count=n, edges=[(i, i + 1) for i in range(n - 1)])


def skeletal(graph, hop_count, hop_weights):
    return build_hybrid_adjacency(graph, hop_count, hop_weights).skeletal


def dense_adjacency(graph):
    a = np.zeros((graph.joint_count, graph.joint_count))
    for i, j in graph.edges:
        a[i, j] = a[j, i] = 1.0
    return a


class TestShortestPathHops:
    def test_two_joint_chain(self):
        assert shortest_path_hops(chain(2)).tolist() == [[0, 1], [1, 0]]

    def test_three_joint_chain(self):
        hops = shortest_path_hops(chain(3))
        assert hops[0, 2] == 2 and hops[2, 0] == 2

    def test_h36m_matches_scipy_oracle(self):
        graph = human36m_skeleton()
        hops = shortest_path_hops(graph)
        oracle = scipy_shortest_path(dense_adjacency(graph), unweighted=True)
        assert np.array_equal(hops, oracle.astype(int))

    def test_symmetric_pairs_do_not_shorten_paths(self):
        graph = human36m_skeleton()
        hops = shortest_path_hops(graph)
        # left/right wrists are 6 bones apart even though directly "symmetric"
        assert hops[13, 16] == 6

    def test_disconnected_graph_reports_unreachable(self):
        # n - 1 edges, but a cycle leaves joint 3 apart.
        with pytest.raises(GraphStructureError, match=r"joints \[3\] unreachable"):
            SkeletonGraph(joint_count=4, edges=[(0, 1), (1, 2), (0, 2)])

    def test_invariants(self):
        hops = shortest_path_hops(human36m_skeleton())
        assert np.array_equal(hops, hops.T)
        assert (np.diag(hops) == 0).all()
        n = hops.shape[0]
        for k in range(n):
            assert (hops <= hops[:, k : k + 1] + hops[k : k + 1, :]).all()


class TestWalk:
    # 3 is the root; 1 and 4 branch, 6 continues to 7.
    TREE = SkeletonGraph(joint_count=8, edges=[(3, 0), (3, 1), (1, 2), (3, 4), (4, 5), (4, 6),
                                               (6, 7)], root_index=3)

    def test_order_parents_and_hops_from_the_root(self):
        order, parent, hops = self.TREE.walk()
        assert order == [3, 0, 1, 4, 2, 5, 6, 7]
        assert parent.tolist() == [3, 3, 1, -1, 3, 4, 4, 6]
        assert hops.tolist() == [1, 1, 2, 0, 1, 2, 2, 3]
        assert np.array_equal(self.TREE.parents(), parent)
        assert all(order.index(parent[j]) < order.index(j) for j in order[1:])

    def test_hops_from_every_source_match_scipy_oracle(self):
        oracle = scipy_shortest_path(dense_adjacency(self.TREE), unweighted=True).astype(int)
        rows = [self.TREE.walk(src)[2] for src in range(self.TREE.joint_count)]
        assert np.array_equal(np.stack(rows), oracle)
        assert np.array_equal(shortest_path_hops(self.TREE), oracle)

    def test_unreachable_joints_get_minus_one(self):
        # The constructor names the joints that `walk` from joint 0 marks
        # -1: a cycle over 0-2 spends the n - 1 edges, so 3 and 4 hang apart.
        with pytest.raises(GraphStructureError, match=r"joints \[3, 4\] unreachable from joint 0"):
            SkeletonGraph(joint_count=5, edges=[(0, 1), (1, 2), (0, 2), (3, 4)])


class TestKhopAdjacency:
    def test_chain_k1_is_edge_set(self):
        hops = shortest_path_hops(chain(3))
        assert khop_adjacency(hops, 1).tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]

    def test_chain_k2_endpoints_only(self):
        hops = shortest_path_hops(chain(3))
        assert khop_adjacency(hops, 2).tolist() == [[0, 0, 1], [0, 0, 0], [1, 0, 0]]

    def test_chain_k3_empty(self):
        hops = shortest_path_hops(chain(3))
        assert not khop_adjacency(hops, 3).any()

    def test_k_must_be_positive(self):
        hops = shortest_path_hops(chain(3))
        with pytest.raises(ConfigError):
            khop_adjacency(hops, 0)

    def test_supports_disjoint_and_cover_connected_graph(self):
        graph = human36m_skeleton()
        hops = shortest_path_hops(graph)
        diameter = hops.max()
        union = np.eye(graph.joint_count)
        for k in range(1, diameter + 1):
            a_k = khop_adjacency(hops, k)
            assert not (union * a_k).any(), f"k={k} overlaps earlier support"
            union += a_k
        assert (union == 1).all()


class TestSymmetricMatrix:
    def test_no_pairs_gives_zero_matrix(self):
        assert not symmetric_matrix(chain(4)).any()

    def test_single_pair(self):
        graph = SkeletonGraph(joint_count=6, edges=[(i, i + 1) for i in range(5)],
                              symmetric_pairs=[(2, 5)])
        sym = symmetric_matrix(graph)
        assert sym[2, 5] == 1 and sym[5, 2] == 1
        assert sym.sum() == 2

    def test_h36m_has_twelve_entries(self):
        assert symmetric_matrix(human36m_skeleton()).sum() == 12


class TestHybridSkeletonMatrix:
    def test_three_chain_two_hops_unit_weights(self):
        out = skeletal(chain(3), 2, [1.0, 1.0])
        assert out.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_two_chain_scaled(self):
        out = skeletal(chain(2), 1, [0.5])
        assert out.tolist() == [[0, 0.5], [0.5, 0]]

    def test_h36m_matches_compositional_oracle(self):
        graph = human36m_skeleton()
        out = skeletal(graph, 2, [1.0, 1.0])
        hops = shortest_path_hops(graph)
        oracle = khop_adjacency(hops, 1) + khop_adjacency(hops, 2) + 0.5 * symmetric_matrix(graph)
        assert np.array_equal(out, oracle)

    def test_default_sym_weight_is_half_last_hop(self):
        adj = build_hybrid_adjacency(human36m_skeleton(), hop_count=2, hop_weights=[1.0, 0.8])
        assert adj.sym_weight == 0.4
        # wrists are a symmetric pair beyond 2 hops: only the sym term remains
        assert adj.skeletal[13, 16] == 0.4

    def test_linear_in_each_hop_weight(self):
        # the preset's bones without its symmetric pairs, so only hop terms remain
        graph = SkeletonGraph(joint_count=17, edges=human36m_skeleton().edges)
        base = skeletal(graph, 2, [0.5, 1.0])
        double = skeletal(graph, 2, [1.0, 1.0])
        hops = shortest_path_hops(graph)
        one_hop = khop_adjacency(hops, 1)
        assert np.allclose(double - base, 0.5 * one_hop)

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            skeletal(chain(3), 0, [])
        with pytest.raises(ConfigError):
            skeletal(chain(3), 2, [1.0])
        with pytest.raises(ConfigError):
            skeletal(chain(3), 1, [1.5])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_joint_relabelling_permutes_all_matrices(self, seed):
        graph = human36m_skeleton()
        rng = np.random.default_rng(seed)
        perm = rng.permutation(graph.joint_count)
        remapped = SkeletonGraph(
            joint_count=graph.joint_count,
            edges=[(perm[i], perm[j]) for i, j in graph.edges],
            symmetric_pairs=[(perm[i], perm[j]) for i, j in graph.symmetric_pairs],
            root_index=int(perm[graph.root_index]),
        )
        for fn in (lambda g: shortest_path_hops(g),
                   lambda g: symmetric_matrix(g),
                   lambda g: skeletal(g, 2, [1.0, 1.0])):
            original, relabelled = fn(graph), fn(remapped)
            # entry for relabelled joints (perm[i], perm[j]) equals original (i, j)
            assert np.array_equal(relabelled[np.ix_(perm, perm)], original)


class TestSkeletonGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ConfigError):
            SkeletonGraph(joint_count=3, edges=[(0, 0), (1, 2)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ConfigError):
            SkeletonGraph(joint_count=3, edges=[(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            SkeletonGraph(joint_count=3, edges=[(0, 3), (1, 2)])

    def test_rejects_cycle(self):
        with pytest.raises(GraphStructureError):
            SkeletonGraph(joint_count=3, edges=[(0, 1), (1, 2), (2, 0)])

    def test_rejects_symmetric_pair_duplicating_edge(self):
        with pytest.raises(ConfigError):
            SkeletonGraph(joint_count=3, edges=[(0, 1), (1, 2)], symmetric_pairs=[(0, 1)])

    def test_h36m_preset_shape(self):
        graph = human36m_skeleton()
        assert graph.joint_count == 17
        assert len(graph.edges) == 16
        assert len(graph.symmetric_pairs) == 6
        assert graph.root_index == 0

    def test_json_round_trip(self, tmp_path):
        graph = human36m_skeleton()
        path = tmp_path / "skeleton.json"
        save_skeleton(graph, path)
        loaded = load_skeleton(path)
        assert loaded.edges == graph.edges
        assert loaded.symmetric_pairs == graph.symmetric_pairs
        assert loaded.joint_names == graph.joint_names
        assert loaded.root_index == graph.root_index
