"""Chart-filling inner loops of ``plcg.chart``: scalar Python loops over
the integer-indexed numpy arrays of a compiled PCFG."""

from __future__ import annotations

import math

import numpy as np

NEG_INF = float("-inf")


def viterbi_fill(n, n_syms, term_ids, bin_lhs, bin_r1, bin_r2, bin_lp,
                  un_lhs, un_child, un_lp, best, back_op, back_split):
    # back_op: >=0 binary rule index; -2-u for unary rule u; -1 terminal/none.
    n_bin = bin_lhs.shape[0]
    n_un = un_lhs.shape[0]
    for i in range(n):
        best[i, i + 1, term_ids[i]] = 0.0
    for length in range(1, n + 1):
        for i in range(n - length + 1):
            j = i + length
            if length > 1:
                for r in range(n_bin):
                    a, b, c = bin_lhs[r], bin_r1[r], bin_r2[r]
                    w = bin_lp[r]
                    for m in range(i + 1, j):
                        lb = best[i, m, b]
                        if lb == NEG_INF:
                            continue
                        rc = best[m, j, c]
                        if rc == NEG_INF:
                            continue
                        cand = w + lb + rc
                        if cand > best[i, j, a]:
                            best[i, j, a] = cand
                            back_op[i, j, a] = r
                            back_split[i, j, a] = m
            # Unary closure to a fixpoint (strict improvement only).
            changed = True
            while changed:
                changed = False
                for u in range(n_un):
                    a, b = un_lhs[u], un_child[u]
                    lb = best[i, j, b]
                    if lb == NEG_INF:
                        continue
                    cand = un_lp[u] + lb
                    if cand > best[i, j, a]:
                        best[i, j, a] = cand
                        back_op[i, j, a] = -2 - u
                        back_split[i, j, a] = -1
                        changed = True


def inside_fill(n, n_syms, term_ids, bin_lhs, bin_r1, bin_r2, bin_lp,
                 un_lhs, un_child, un_lp, inside, max_unary_passes, tol):
    n_bin = bin_lhs.shape[0]
    n_un = un_lhs.shape[0]
    for i in range(n):
        inside[i, i + 1, term_ids[i]] = 0.0
    for length in range(1, n + 1):
        for i in range(n - length + 1):
            j = i + length
            base = np.full(n_syms, NEG_INF)
            if length == 1:
                base[term_ids[i]] = 0.0
            for r in range(n_bin):
                a, b, c = bin_lhs[r], bin_r1[r], bin_r2[r]
                w = bin_lp[r]
                for m in range(i + 1, j):
                    lb = inside[i, m, b]
                    if lb == NEG_INF:
                        continue
                    rc = inside[m, j, c]
                    if rc == NEG_INF:
                        continue
                    cand = w + lb + rc
                    cur_v = base[a]
                    if cur_v == NEG_INF:
                        base[a] = cand
                    elif cand > cur_v:
                        base[a] = cand + math.log1p(math.exp(cur_v - cand))
                    else:
                        base[a] = cur_v + math.log1p(math.exp(cand - cur_v))
            # Solve I = base + sum_unary by Jacobi iteration; exact in
            # finitely many passes on acyclic unary graphs.
            cur = base.copy()
            for _ in range(max_unary_passes):
                nxt = base.copy()
                for u in range(n_un):
                    a, b = un_lhs[u], un_child[u]
                    if cur[b] != NEG_INF:
                        cand = un_lp[u] + cur[b]
                        cur_v = nxt[a]
                        if cur_v == NEG_INF:
                            nxt[a] = cand
                        elif cand > cur_v:
                            nxt[a] = cand + math.log1p(math.exp(cur_v - cand))
                        else:
                            nxt[a] = cur_v + math.log1p(math.exp(cand - cur_v))
                delta = 0.0
                for s in range(n_syms):
                    if nxt[s] != cur[s]:
                        if cur[s] == NEG_INF or abs(nxt[s] - cur[s]) > tol:
                            d = 1.0
                        else:
                            d = 0.0
                        if d > delta:
                            delta = d
                cur = nxt
                if delta == 0.0:
                    break
            for s in range(n_syms):
                inside[i, j, s] = cur[s]

