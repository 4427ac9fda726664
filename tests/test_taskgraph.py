import random

import pytest
from hypothesis import given, settings, strategies as st

from faultsim.genbench import gen_bench
from faultsim.rtl import REG, TASK_KINDS, VIRTUAL, observe_outputs, split_register_reads
from faultsim.taskgraph import (
    DEFAULT, MASTER, SLAVE, SYNC, Task, TaskGraph, make_task_graph,
)

from conftest import SYNCED, build, per_node_graph, preds_of

CHAIN = """
module m
input a 1
assign b 1 = NOT a
assign c 1 = NOT b
end
"""

DIAMOND = """
module m
input a 1
assign b 1 = NOT a
assign c 1 = NOT a
assign d 1 = AND b c
end
"""


def dump_dot(tg: TaskGraph) -> str:
    """Deterministic graphviz text of the task graph, for golden files."""

    lines = ["digraph tasks {"]
    for t in tg.tasks:
        if t.kind == SYNC:
            label = f"sync({','.join(str(r) for r in t.regs)})"
        elif t.kind == SLAVE:
            label = f"slave(n{t.node}.{t.slave_index})"
        else:
            label = f"{t.kind}(n{t.node})"
        lines.append(f'  t{t.id} [label="{label}"];')
    for t in tg.tasks:
        for s in sorted(set(t.succs)):
            lines.append(f"  t{t.id} -> t{s};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def task_key(t: Task):
    """A task's identity that survives renumbering; a default task is
    known by its chain's first node."""

    if t.kind == SLAVE:
        return (SLAVE, t.node, t.slave_index)
    if t.kind == SYNC:
        return (SYNC, t.regs)
    return (t.kind, t.node)


def canonical_form(tg: TaskGraph):
    """Structure of the graph with ids replaced by stable task keys, for
    isomorphism comparisons (expansion order must not matter)."""

    keys = {t.id: task_key(t) for t in tg.tasks}
    nodes = sorted(keys.values())
    edges = sorted(
        (keys[t.id], keys[s]) for t in tg.tasks for s in set(t.succs)
    )
    return nodes, edges


def task_of(tg, g, name):
    return tg.tasks[tg.node_task[g.name_to_id[name]]]


def test_chain_is_one_task():
    g = build(CHAIN)
    tg = make_task_graph(g)
    (task,) = tg.tasks  # inputs carry no task
    b, c = g.name_to_id["b"], g.name_to_id["c"]
    assert task.kind == DEFAULT and task.node == b and task.nodes == (b, c)
    assert preds_of(tg.tasks) == [[]] and task.succs == []
    assert tg.node_task == {b: 0, c: 0}


def test_diamond_pred_count():
    g = build(DIAMOND)
    tg = make_task_graph(g)
    d = task_of(tg, g, "d")
    preds = preds_of(tg.tasks)
    assert len(preds[d.id]) == 2
    entry = {tid for tid, ids in enumerate(preds) if not ids}
    assert entry == {task_of(tg, g, "b").id, task_of(tg, g, "c").id}


def test_sync_task_waits_for_readers_and_producer():
    g = build(SYNCED)
    tg = make_task_graph(g)
    sync = tg.tasks[tg.sync_tasks[0]]
    d = task_of(tg, g, "d")   # reads r
    e = task_of(tg, g, "e")   # produces next r
    assert sync.kind == SYNC
    assert set(preds_of(tg.tasks)[sync.id]) == {d.id, e.id}
    assert sync.succs == []


def test_sync_with_no_readers_waits_for_producer_only():
    text = """
module m
input x 1
reg r 1 = 0
assign e 1 = NOT x
output o 1 = e
next r = e
end
"""
    g = build(text)
    tg = make_task_graph(g)
    sync = tg.tasks[tg.sync_tasks[0]]
    assert set(preds_of(tg.tasks)[sync.id]) == {task_of(tg, g, "e").id}


def test_reg_to_reg_chain_orders_syncs():
    text = """
module m
input x 1
reg r1 1 = 0
reg r2 1 = 0
output o 1 = r2
next r1 = x
next r2 = r1
end
"""
    g = build(text)
    split_register_reads(g)
    observe_outputs(g)
    tg = make_task_graph(g)
    sync_r1 = tg.tasks[tg.sync_tasks[0]]
    sync_r2 = tg.tasks[tg.sync_tasks[1]]
    # r2 captures r1's current value through r1's copy, which reads r1, so
    # r1 commits only after the copy ran and r2 commits after it too.  The
    # output reads r2 through r2's copy, which r2's commit waits for.
    copy = tg.tasks[tg.node_task[g.nodes[g.name_to_id["r2"]].next_src]]
    assert g.nodes[copy.node].fanin == [g.name_to_id["r1"]]
    o_copy = tg.tasks[tg.node_task[g.nodes[g.name_to_id["o"]].fanin[0]]]
    assert g.nodes[o_copy.node].fanin == [g.name_to_id["r2"]]
    preds = preds_of(tg.tasks)
    assert set(preds[sync_r1.id]) == {copy.id}
    assert set(preds[sync_r2.id]) == {o_copy.id, copy.id}
    assert copy.succs == [sync_r1.id, sync_r2.id]


def test_expansion_topology():
    g = build(DIAMOND)
    tg = make_task_graph(g, [g.name_to_id["c"]], 2)
    b, c, d = (task_of(tg, g, n) for n in "bcd")
    assert c.kind == MASTER
    slaves = [t for t in tg.tasks if t.kind == SLAVE]
    assert [s.slave_index for s in slaves] == [0, 1]
    preds = preds_of(tg.tasks)
    for s in slaves:
        assert set(preds[s.id]) == {c.id}
        assert s.succs == [d.id]
    assert set(preds[d.id]) == {b.id, c.id} | {s.id for s in slaves}
    assert c.succs[:2] == [s.id for s in slaves]


def test_expansion_k1_degenerate():
    g = build(CHAIN)
    tg = make_task_graph(g, [g.name_to_id["b"]], 1)
    b, c = task_of(tg, g, "b"), task_of(tg, g, "c")
    assert b.kind == MASTER and c.kind == DEFAULT  # an expanded node chains with nothing
    slaves = [t for t in tg.tasks if t.kind == SLAVE]
    assert len(slaves) == 1


def test_expansions_commute():
    g1 = build(DIAMOND)
    g2 = build(DIAMOND)
    nb, nc = g1.name_to_id["b"], g1.name_to_id["c"]
    tg1 = make_task_graph(g1, [nb, nc], 2)
    tg2 = make_task_graph(g2, [nc, nb], 2)
    assert canonical_form(tg1) == canonical_form(tg2)


def test_reset_after_expansion_master_entry_unchanged():
    g = build(CHAIN)
    b = g.name_to_id["b"]
    before = make_task_graph(g)
    ready_before = [tid for tid, ids in enumerate(preds_of(before.tasks)) if not ids]
    tg = make_task_graph(g, [b], 2)
    ready_after = [tid for tid, ids in enumerate(preds_of(tg.tasks)) if not ids]
    assert tg.node_task[b] in ready_before and tg.node_task[b] in ready_after
    slaves = [t.id for t in tg.tasks if t.kind == SLAVE]
    assert not set(slaves) & set(ready_after)


def test_dump_dot_golden():
    g = build(SYNCED)
    tg = make_task_graph(g)
    expected = (
        "digraph tasks {\n"
        '  t0 [label="default(n2)"];\n'
        '  t1 [label="default(n3)"];\n'
        '  t2 [label="sync(1)"];\n'
        "  t0 -> t1;\n"
        "  t0 -> t2;\n"
        "  t1 -> t2;\n"
        "}\n"
    )
    assert dump_dot(tg) == expected


SWAP = """
module m
input x 1
reg r1 4 = 3
reg r2 4 = c
output o1 4 = r1
output o2 4 = r2
next r1 = r2
next r2 = r1
end
"""

ROTATION = """
module m
input x 1
reg a 2 = 0
reg b 2 = 1
reg c 2 = 2
output o 2 = a
next a = b
next b = c
next c = a
end
"""


def check_ring_syncs(text):
    """A register ring gives one sync task per register, with no sync
    predecessor and no successor."""

    g = build(text)
    split_register_reads(g)
    tg = make_task_graph(g)
    assert [tg.tasks[tid].regs for tid in tg.sync_tasks] == [(r,) for r in g.regs]
    preds = preds_of(tg.tasks)
    for tid in tg.sync_tasks:
        task = tg.tasks[tid]
        assert task.succs == []
        assert all(tg.tasks[p].kind != SYNC for p in preds[tid])
        # The register's next value comes from the copy of its source,
        # which reads that source and nothing else.
        (rid,) = task.regs
        copy = g.nodes[g.nodes[rid].next_src]
        assert copy.kind == VIRTUAL and g.nodes[copy.fanin[0]].kind == REG
        assert tg.node_task[copy.id] in preds[tid]


def test_register_swap_gives_one_sync_per_register():
    check_ring_syncs(SWAP)


def test_register_rotation_ring_gives_one_sync_per_register():
    check_ring_syncs(ROTATION)


def test_split_shares_one_copy_per_source_and_is_idempotent():
    text = """
module m
input x 1
reg r 2 = 1
reg s 2 = 0
reg t 2 = 0
output o 2 = t
next r = r
next s = r
next t = r
end
"""
    g = build(text)
    topo = list(g.topo)
    split_register_reads(g)
    r = g.name_to_id["r"]
    (copy,) = {g.nodes[rid].next_src for rid in g.regs}
    assert g.nodes[copy].fanin == [r] and copy in g.nodes[r].fanout
    assert g.topo == topo + [copy]
    nodes = len(g.nodes)
    split_register_reads(g)
    assert len(g.nodes) == nodes


@pytest.mark.parametrize("text", [SWAP, ROTATION])
def test_unsplit_register_read_rejected(text):
    with pytest.raises(ValueError, match="split register reads"):
        make_task_graph(build(text))


# A chain b-c-d that forks at d, a join at g that starts the chain g-h-p,
# p feeding the node q the test expands, the chain s-t behind q, and the
# register reader x, whose successors are y and r's sync task.
MERGE = """
module m
input a 4
reg r 4 = 0
assign b 4 = NOT a
assign c 4 = NOT b
assign d 4 = NOT c
assign e 4 = NOT d
assign f 4 = NOT d
assign g 4 = AND e f
assign h 4 = NOT g
assign p 4 = NOT h
assign q 4 = NOT p
assign s 4 = NOT q
assign t 4 = NOT s
assign x 4 = NOT r
assign y 4 = NOT x
assign z 4 = XOR y t
output o 4 = z
next r = z
end
"""


def test_merge_chains_on_hand_built_netlist():
    g = build(MERGE)
    tg = make_task_graph(g, [g.name_to_id["q"]], 2)
    names = {t.id: "".join(g.nodes[n].name for n in t.nodes)
             for t in tg.tasks if t.kind == DEFAULT}
    assert sorted(names.values()) == ["bcd", "e", "f", "ghp", "st", "x", "y", "z"]
    by_name = {name: tid for tid, name in names.items()}
    for t in tg.tasks:
        assert t.id == tg.tasks.index(t)
        if t.kind == DEFAULT:
            assert t.node == t.nodes[0]
            assert all(tg.node_task[n] == t.id for n in t.nodes)
    assert tg.tasks[by_name["bcd"]].succs == [by_name["e"], by_name["f"]]
    preds = preds_of(tg.tasks)
    assert set(preds[by_name["z"]]) == {by_name["st"], by_name["y"]}
    master = tg.tasks[tg.node_task[g.name_to_id["q"]]]
    assert master.kind == MASTER and set(preds[master.id]) == {by_name["ghp"]}
    assert len(preds[by_name["st"]]) == 3  # the master and two slaves
    (sync,) = tg.sync_tasks
    assert set(preds[sync]) == {by_name["x"], by_name["z"]}
    assert [tid for tid, ids in enumerate(preds) if not ids] == [by_name["bcd"], by_name["x"]]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), picks=st.integers(0, 5), k=st.integers(1, 4))
def test_merge_chains_properties(seed, picks, k):
    """On generated graphs with random expansions, against the one task
    per node reference: the built tasks partition the nodes, keep every
    dependency and the reference's task order, leave masters, slaves and
    sync tasks alone, and leave no mergeable link behind."""

    bench = gen_bench(("uniform", "skewed", "pipeline")[seed % 3], 40, seed,
                      cycles=2, fault_count=6)
    graph, _, _ = bench.build()
    split_register_reads(graph)
    evaluated = [n.id for n in graph.nodes if n.kind in TASK_KINDS]
    rng = random.Random(seed)
    expanded = rng.sample(evaluated, min(picks, len(evaluated)))
    before = per_node_graph(graph, expanded, k)
    keys = {t.id: task_key(t) for t in before}
    edges = {(keys[t.id], keys[s]) for t in before for s in t.succs}
    others = sorted(keys[t.id] for t in before if t.kind != DEFAULT)
    default_nodes = sorted(t.node for t in before if t.kind == DEFAULT)

    tg = make_task_graph(graph, expanded, k)
    tasks = tg.tasks
    assert [t.id for t in tasks] == list(range(len(tasks)))
    # Each reference task's key -> (built task id, position in its nodes).
    where = {}
    for t in tasks:
        if t.kind == DEFAULT:
            for pos, nid in enumerate(t.nodes):
                assert (DEFAULT, nid) not in where
                where[(DEFAULT, nid)] = (t.id, pos)
                assert tg.node_task[nid] == t.id
        else:
            where[task_key(t)] = (t.id, 0)
    assert sorted(n for t in tasks if t.kind == DEFAULT for n in t.nodes) == default_nodes
    assert sorted(task_key(t) for t in tasks if t.kind != DEFAULT) == others
    assert all(len(t.nodes) <= 1 for t in tasks if t.kind != DEFAULT)
    built = {task_key(t) for t in tasks}
    assert [task_key(t) for t in tasks] == [keys[t.id] for t in before if keys[t.id] in built]

    merged_edges = set()
    for u, v in edges:
        (tu, pu), (tv, pv) = where[u], where[v]
        if tu == tv:
            assert pv == pu + 1, (u, v)
        else:
            assert tv in tasks[tu].succs, (u, v)
            merged_edges.add((tu, tv))
    # No edge appears that the reference does not imply.
    assert {(t.id, s) for t in tasks for s in t.succs} == merged_edges

    preds = preds_of(tasks)
    for a in tasks:  # maximal: no link is left to merge
        if a.kind == DEFAULT and len(a.succs) == 1:
            b = tasks[a.succs[0]]
            assert not (b.kind == DEFAULT and len(preds[b.id]) == 1)

    assert sorted(tg.boards) == sorted(expanded)
