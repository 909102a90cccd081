import pytest

from adskit.verdict import PRUNED, SearchBounds, Verdict, bounded_search, explore


def search(graph, goals=(), max_configs=100):
    """Run the engine over a dict graph: node -> [(next, cost, label) | PRUNED]."""
    return bounded_search("s", lambda node, cost: graph.get(node, ()),
                          lambda node: node in goals, max_configs)


CYCLE = {
    "s": [("a", 0, "sa"), ("b", 0, "sb")],
    "a": [("b", 0, "ab")],
    "b": [("s", 0, "bs"), ("c", 0, "bc")],
}


class TestVerdicts:
    def test_exhausted_search_rejects(self):
        assert search(CYCLE) == (Verdict.REJECT, None)

    def test_cap_equal_to_the_graph_still_rejects(self):
        assert search(CYCLE, max_configs=4) == (Verdict.REJECT, None)

    def test_cap_hit_gives_unknown(self):
        assert search(CYCLE, max_configs=3) == (Verdict.UNKNOWN, None)

    def test_pruned_move_gives_unknown(self):
        graph = dict(CYCLE, c=[PRUNED])
        assert search(graph) == (Verdict.UNKNOWN, None)

    def test_goal_found_despite_pruning(self):
        graph = dict(CYCLE, s=[PRUNED] + CYCLE["s"])
        assert search(graph, goals={"c"}) == (Verdict.ACCEPT, ("sb", "bc"))

    def test_start_goal_has_empty_path(self):
        assert search(CYCLE, goals={"s"}) == (Verdict.ACCEPT, ())


class TestSearchBounds:
    @pytest.mark.parametrize("text, message", [
        ("max-blocks=-1", "max-blocks must be at least 0, got -1"),
        ("max-tape=-2", "max-tape must be at least 0, got -2"),
        ("max-configs=0", "max-configs must be at least 1, got 0"),
    ])
    def test_out_of_range_component_is_named(self, text, message):
        with pytest.raises(ValueError, match=message):
            SearchBounds.parse(text)

    @pytest.mark.parametrize("text", ["max-tape=\u00b2", "max-configs=\u00b9\u2070"])
    def test_non_decimal_digits_are_rejected(self, text):
        with pytest.raises(ValueError, match=f"bad bounds component '{text}'"):
            SearchBounds.parse(text)

    def test_zero_blocks_and_tape_are_allowed(self):
        assert SearchBounds.parse("max-blocks=0,max-tape=0") == SearchBounds(
            max_blocks=0, max_tape=0)

    def test_repeated_component_is_rejected(self):
        with pytest.raises(ValueError, match="max-tape given twice"):
            SearchBounds.parse("max-tape=1,max-tape=2")


class TestCheaperRevisits:
    def test_cheaper_revisit_replaces_the_parent(self):
        # c is found through a at cost 1 before b lowers a to cost 0
        graph = {
            "s": [("a", 1, "sa"), ("b", 0, "sb")],
            "a": [("c", 1, "ac")],
            "b": [("a", 0, "ba")],
        }
        assert search(graph, goals={"c"}) == (Verdict.ACCEPT, ("sb", "ba", "ac"))

    def test_revisit_is_expanded_at_the_lower_cost(self):
        graph = {
            "s": [("a", 1, "sa"), ("b", 0, "sb")],
            "b": [("a", 0, "ba")],
        }
        expanded = []

        def successors(node, cost):
            expanded.append((node, cost))
            return graph.get(node, ())

        assert bounded_search("s", successors, lambda n: False, 10) == (Verdict.REJECT, None)
        assert expanded == [("s", 0), ("a", 1), ("b", 0), ("a", 0)]

    def test_equal_cost_revisit_keeps_the_first_parent(self):
        graph = {
            "s": [("a", 0, "sa"), ("b", 0, "sb")],
            "b": [("a", 0, "ba")],
        }
        assert search(graph, goals={"a"}) == (Verdict.ACCEPT, ("sa",))

    def test_cheaper_revisit_taken_after_the_cap(self):
        # the store is full (s, b, a) when b's move to y hits the cap; its
        # later move still lowers a, so a is reached through b
        graph = {
            "s": [("b", 0, "sb"), ("a", 1, "sa")],
            "b": [("y", 0, "by"), ("a", 0, "ba")],
        }
        assert search(graph, goals={"a"}, max_configs=3) == (Verdict.ACCEPT, ("sb", "ba"))


def walk(graph, starts=("s",), max_nodes=None):
    """Run the walk over a dict graph: node -> [next | PRUNED]."""
    return explore(starts, lambda node: graph.get(node, ()), max_nodes)


DIAMOND = {"s": ["b", "a"], "a": ["c", "s"], "b": ["c", "d"], "c": ["e"]}


class TestExplore:
    def test_discovery_order(self):
        assert walk(DIAMOND) == (["s", "b", "a", "c", "d", "e"], False)

    def test_successors_called_once_per_node_in_order(self):
        called = []

        def successors(node):
            called.append(node)
            return DIAMOND.get(node, ())

        nodes, _ = explore(["s"], successors)
        assert called == nodes

    def test_duplicate_starts_stored_once(self):
        assert walk(DIAMOND, starts=["c", "a", "c"]) == (["c", "a", "e", "s", "b", "d"], False)

    def test_node_without_moves(self):
        assert walk({}, starts=["x"]) == (["x"], False)

    def test_pruned_move_truncates(self):
        nodes, truncated = walk(dict(DIAMOND, d=[PRUNED]))
        assert nodes == ["s", "b", "a", "c", "d", "e"] and truncated

    def test_cap_equal_to_the_graph_is_not_truncated(self):
        assert walk(DIAMOND, max_nodes=6) == (["s", "b", "a", "c", "d", "e"], False)

    def test_cap_hit_stores_max_nodes_and_truncates(self):
        assert walk(DIAMOND, max_nodes=5) == (["s", "b", "a", "c", "d"], True)
