"""The per-entry scheme-axiom check, as a reference for the whole-array
compares in ``scheme._axiom_messages``: one Python test per class, pair of
classes or entry of p, in the order the messages are reported."""

from collections.abc import Iterator


def axiom_messages_reference(valencies, p, pairing, point_count) -> Iterator[str]:
    """Every axiom violation of (valencies, p, pairing), uncapped."""
    r = len(valencies)
    if valencies[0] != 1:
        yield f"valency of the diagonal class is {valencies[0]}, expected 1"
    if int(valencies.sum()) != point_count:
        yield f"valencies sum to {int(valencies.sum())}, expected {point_count}"
    if p.shape != (r, r, r):
        yield f"p has shape {p.shape}, expected {(r, r, r)}"
        return
    if len(pairing) != r or sorted(pairing) != list(range(r)):
        yield f"pairing {pairing} is not a permutation of 0..{r - 1}"
        return
    if pairing[0] != 0:
        yield "pairing does not fix the diagonal class"
    for i in range(r):
        if pairing[pairing[i]] != i:
            yield f"pairing is not an involution at class {i}"
        if valencies[pairing[i]] != valencies[i]:
            yield f"class {i} and its pair {pairing[i]} have different valencies"
    for i in range(r):
        for k in range(r):
            want = 1 if i == k else 0
            if p[i][0][k] != want:
                yield f"p[{i}][0][{k}] = {p[i][0][k]}, expected {want}"
            if p[0][i][k] != want:
                yield f"p[0][{i}][{k}] = {p[0][i][k]}, expected {want}"
    for i in range(r):
        for k in range(r):
            row = int(p[i, :, k].sum())
            if row != int(valencies[i]):
                yield f"sum_j p[{i}][j][{k}] = {row}, expected k_{i} = {int(valencies[i])}"
    for i in range(r):
        for j in range(r):
            total = int((p[i, j, :] * valencies).sum())
            want = int(valencies[i]) * int(valencies[j])
            if total != want:
                yield f"sum_k p[{i}][{j}][k] k_k = {total}, expected k_{i} k_{j} = {want}"
