"""What a reduced kernel must look like once no rule can act on it."""

from __future__ import annotations

from sfast.graphs import Instance, has_s_triangle, strongly_connected_components
from sfast.kernel import (
    STATUS_NOT_APPLICABLE,
    class_decomposition,
    decomposition_class_size,
    deletion_class_size,
    equivalence_classes,
    rr2_triangle_free_terminal,
    rr3_many_triangles,
    rr4_bounded_terminal,
    rr5_safe_partition,
    rr6_many_types,
    rr7_wrong_arcs,
    rr9_vertex_bound,
    vertex_bound,
)


def assert_kernel_exhausted(kernel: Instance) -> None:
    """Every rule refuses the kernel, and the numeric bounds they enforce hold."""
    t, terminals, k = kernel.tournament, kernel.terminals, kernel.k
    assert k >= 0
    # Every vertex lies on a terminal cycle: each strong component holds a
    # terminal and another vertex. So a kernel is terminal-acyclic only when
    # rule 2 removed every vertex, leaving nothing for rule 1 to decide at
    # a positive budget.
    for comp in strongly_connected_components(t):
        assert len(comp) > 1 and terminals & set(comp), comp
    if has_s_triangle(t, terminals) is None:
        assert kernel.n == 0

    assert rr2_triangle_free_terminal(kernel).status == STATUS_NOT_APPLICABLE
    for rule in (
        rr3_many_triangles,
        rr4_bounded_terminal,
        rr5_safe_partition,
        rr9_vertex_bound,
    ):
        outcome = rule(kernel)
        assert outcome.status == STATUS_NOT_APPLICABLE, (rule.__name__, outcome.status)

    for s in terminals:
        assert has_s_triangle(t, {s}) is not None
    assert len(terminals) <= max((k + 1) ** 2 - 1, 0)
    assert len(terminals) <= 4 * k

    classes = equivalence_classes(t, terminals)
    assert rr6_many_types(kernel, classes).status == STATUS_NOT_APPLICABLE
    assert len(classes) <= 5 * k + 1
    for members in classes:
        assert len(members) < deletion_class_size(k)
        if len(members) >= decomposition_class_size(k):
            dec = class_decomposition(kernel, members)
            assert rr7_wrong_arcs(kernel, dec).status == STATUS_NOT_APPLICABLE

    assert kernel.n <= vertex_bound(k)
