"""Label tables (``repro.core.labels``): one canonical label per
structure bucket, int-keyed postings, and nothing cached that could
cross a process.

The differential tests build every graph twice — with the bucket's
shared table (the grouping layer's path) and one by one without a
table, re-keyed by label equality when indexed — and require the same
graphs, postings, pivot paths and groups either way.
"""

import os
import pickle
import string
import subprocess
import sys
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core import grouping, incremental
from repro.core.functions import ConstantStr, Prefix, SubStr, label_sort_key
from repro.core.graph import build_graph
from repro.core.grouping import build_graphs, unsupervised_grouping
from repro.core.incremental import IncrementalGrouper
from repro.core.index import InvertedIndex
from repro.core.labels import LabelTable
from repro.core.pivot import GlobalBounds, search_pivot
from repro.core.positions import END, ConstPos, MatchPos
from repro.core.replacement import Replacement
from repro.core.terms import CAPITALS, DEFAULT_VOCABULARY, DIGITS

SRC = Path(__file__).resolve().parents[2] / "src"

SMALL = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

name = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6).map(
    str.capitalize
)
number = st.text(alphabet=string.digits, min_size=1, max_size=4)


@st.composite
def replacement(draw):
    """One replacement from a few recurring transformation families, so
    a drawn bucket shares programs (and labels) between members."""
    a, b, n = draw(name), draw(name), draw(number)
    lhs, rhs = draw(
        st.sampled_from(
            [
                (f"{a}, {b}", f"{b[0]}. {a}"),
                (f"{a} {n}", f"{n} {a}"),
                (f"{a} St, {n}", f"{a} Street, {n}"),
                (f"{a}", f"{a.upper()}"),
                (f"{a} {b}", f"{b}"),
            ]
        )
    )
    if lhs == rhs:
        rhs += "x"
    return Replacement(lhs, rhs)


buckets = st.lists(replacement(), min_size=1, max_size=7, unique=True)


def build_graphs_one_by_one(replacements, vocabulary, config):
    """``grouping.build_graphs`` without a shared table: every graph
    gets its own, and the index re-keys its labels by equality."""
    index = InvertedIndex()
    by_gid, graphless = {}, []
    whitelist = grouping.constant_whitelist(replacements, config)
    for r in replacements:
        graph = build_graph(r.lhs, r.rhs, vocabulary, config, whitelist)
        if graph is None:
            graphless.append(r)
        else:
            by_gid[index.add_graph(graph)] = r
    return index, by_gid, graphless


def one_by_one():
    """Patch every import site of ``build_graphs``."""
    patches = [
        mock.patch.object(module, "build_graphs", build_graphs_one_by_one)
        for module in (grouping, incremental)
    ]
    for patch in patches:
        patch.start()
    return patches


def groups_of(outcome_groups):
    return [
        (g.program, g.replacements, g.structure) for g in outcome_groups
    ]


class TestLabelTable:
    def test_one_canonical_instance_per_label(self):
        table = LabelTable()
        tid = table.term(CAPITALS)
        left = table.match_pos(tid, 1, END)
        right = table.const_pos(-1)
        assert table.match_pos(table.term(CAPITALS), 1, END) == left
        lid = table.substr(left, right)
        assert table.substr(left, right) == lid
        label = table.labels[lid]
        assert label == SubStr(MatchPos(CAPITALS, 1, END), ConstPos(-1))
        assert table.keys[lid] == label_sort_key(label)

    def test_intern_maps_equal_labels_to_one_id(self):
        table = LabelTable()
        built = table.substr(table.const_pos(1), table.const_pos(3))
        foreign = SubStr(ConstPos(1), ConstPos(3))
        assert table.intern(foreign) == built
        assert table.intern(ConstantStr("x")) == table.constant("x")
        prefix = table.intern(Prefix(DIGITS, -1))
        assert table.affix(Prefix, table.term(DIGITS), -1) == prefix
        assert len(table) == 3

    def test_find_never_registers(self):
        table = LabelTable()
        assert table.find(SubStr(MatchPos(DIGITS, 1, END), ConstPos(2))) is None
        assert table.find(Prefix(DIGITS, 1)) is None
        assert table.find(ConstantStr("y")) is None
        assert len(table) == 0 and table.positions == []

    def test_index_keeps_the_table_it_was_given(self):
        index, _, _ = build_graphs(
            [Replacement("Lee, Mary", "M. Lee")], DEFAULT_VOCABULARY,
            DEFAULT_CONFIG,
        )
        graph = index.graphs[0]
        assert graph.table is index.table
        for edge, labels in graph.edges.items():
            assert tuple(index.table.labels[i] for i in graph.ids[edge]) == labels


class TestSharedTableDifferential:
    @SMALL
    @given(buckets)
    def test_graphs_and_postings_match(self, replacements):
        shared, shared_gids, _ = build_graphs(
            replacements, DEFAULT_VOCABULARY, DEFAULT_CONFIG
        )
        alone, alone_gids, _ = build_graphs_one_by_one(
            replacements, DEFAULT_VOCABULARY, DEFAULT_CONFIG
        )
        assert shared_gids == alone_gids
        for gid, graph in shared.graphs.items():
            other = alone.graphs[gid]
            # Same edges, same label order (list equality is ordered).
            assert list(graph.edges.items()) == list(other.edges.items())
            assert graph.out_edges == other.out_edges
            for labels in graph.edges.values():
                for label in labels:
                    assert shared.posting(label) == alone.posting(label)
                    assert shared.posting_size(label) == alone.posting_size(
                        label
                    )
        table = shared.table
        for lid, label in enumerate(table.labels):
            assert table.keys[lid] == label_sort_key(label)
            assert table.find(label) == lid

    @SMALL
    @given(buckets)
    def test_search_pivot_matches(self, replacements):
        shared, _, _ = build_graphs(
            replacements, DEFAULT_VOCABULARY, DEFAULT_CONFIG
        )
        alone, _, _ = build_graphs_one_by_one(
            replacements, DEFAULT_VOCABULARY, DEFAULT_CONFIG
        )
        shared_bounds, alone_bounds = GlobalBounds(), GlobalBounds()
        for gid in sorted(shared.graphs):
            for threshold in (0, 1):
                a = search_pivot(
                    shared.graphs[gid], shared, threshold=threshold,
                    bounds=shared_bounds,
                )
                b = search_pivot(
                    alone.graphs[gid], alone, threshold=threshold,
                    bounds=alone_bounds,
                )
                assert a == b
        assert shared_bounds == alone_bounds

    @SMALL
    @given(buckets)
    def test_grouping_matches(self, replacements):
        shared = unsupervised_grouping(replacements)
        shared_incremental = list(IncrementalGrouper(replacements).groups())
        patches = one_by_one()
        try:
            alone = unsupervised_grouping(replacements)
            alone_incremental = list(IncrementalGrouper(replacements).groups())
        finally:
            for patch in patches:
                patch.stop()
        assert groups_of(shared.groups) == groups_of(alone.groups)
        assert groups_of(shared_incremental) == groups_of(alone_incremental)
        assert shared.stats == alone.stats


PICKLE_PROGRAM = """
import pickle, sys
from repro.core.grouping import unsupervised_grouping
from repro.core.replacement import Replacement

REPLACEMENTS = [
    Replacement("Lee, Mary", "M. Lee"),
    Replacement("Smith, James", "J. Smith"),
    Replacement("Brown, Anne", "A. Brown"),
    Replacement("Main St, 12", "Main Street, 12"),
    Replacement("Oak St, 7", "Oak Street, 7"),
]
programs = [g.program for g in unsupervised_grouping(REPLACEMENTS).groups]
if sys.argv[1] == "dump":
    # Hash first, as any set or dict use would: whatever that caches
    # must not reach the pickle.
    assert len({p: None for p in programs}) == len(programs)
    with open(sys.argv[2], "wb") as handle:
        pickle.dump(programs, handle)
else:
    with open(sys.argv[2], "rb") as handle:
        loaded = pickle.load(handle)
    assert loaded == programs, (loaded, programs)
    assert [hash(p) for p in loaded] == [hash(p) for p in programs]
    assert {p: i for i, p in enumerate(programs)} == {
        p: i for i, p in enumerate(loaded)
    }
    for old, new in zip(loaded, programs):
        assert [hash(f) for f in old] == [hash(f) for f in new]
    print("ok", len(loaded))
"""


def test_pickled_program_equals_fresh_one_under_another_hash_seed(tmp_path):
    """Nothing per-process (such as a cached ``str`` hash) may travel
    with a pickled label: a program pickled under one hash seed must
    hash and compare equal to a fresh one built under another."""
    script = tmp_path / "program_pickle.py"
    script.write_text(PICKLE_PROGRAM)
    dump = tmp_path / "programs.pkl"

    def run(mode, seed):
        env = {
            k: v for k, v in os.environ.items() if not k.startswith("PYTHON")
        }
        env.update(PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC))
        return subprocess.run(
            [sys.executable, str(script), mode, str(dump)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    dumped = run("dump", 1)
    assert dumped.returncode == 0, dumped.stderr
    loaded = run("load", 2)
    assert loaded.returncode == 0, loaded.stderr
    assert loaded.stdout.startswith("ok")
    with open(dump, "rb") as handle:
        assert len(pickle.load(handle)) >= 2
