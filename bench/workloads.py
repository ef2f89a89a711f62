"""The three benchmark workloads: the scenarios they feed to skewmon and the
exact results they must produce.

Everything here is plain Python and imports nothing from skewmon, so the
inputs are fixed by the benchmark alone.  ``scenarios(workload, seed, index)``
returns the scenario dicts of pass ``index``; ``run_scenario`` sees nothing
else.  Each job carries an ``expect`` block, which skewmon checks itself, and
a ``bench`` block, which the benchmark's own gate (``gate.py``) checks and
strips before the scenario reaches skewmon.

Why these workloads (layer shares are of traced self time at the seed
commit; see README.md for which layer metric should move which end-to-end
metric):

* ``growth`` -- the only workload where the span reducer and skew products
  do most of the work.  Two frames: the Weyl frame {1, x1, e1} on
  shift_algebra(2, 2), whose reducer entries are plain rationals, and
  {1, q*x1, e1 + q} on qshift_algebra(1, 1), whose entries are true Q(q)
  fractions.  A scalar fast path in the reducer therefore shows on one frame
  and not on the other.
* ``witness`` -- random rational functions with nontrivial denominators make
  rational arithmetic the bottleneck, while automorphism application stays
  small.  It is the only workload that uses the seed.  The per-trial cost is
  heavy-tailed (a few trials cost 30x the median), so every pass draws fresh
  trial seeds from (seed, pass index) and the run reports the median pass:
  a median over several independent inputs is steady across seeds where a
  single fixed input is not.
* ``relations`` -- symbolic conjugation makes automorphism application the
  main cost, and the gcd work is on large multivariate fractions.  It is the
  only workload that takes the permutation path of ``act_key``, uses the
  Smith normal form, and has a heavy set-up (``gt_embedding(4)``).
"""

import hashlib

WORKLOADS = ("growth", "witness", "relations")

#: Three gl_4 checks left out of ``relations``.  Each passes; they are cost
#: outliers, not defects.  At the seed commit on a 2-vCPU VM they took 26 s,
#: 19 s and 5 s (33 s, 24 s and 7 s in a rerun under load), several times
#: the whole rest of the workload, so one pass would be a sample of three
#: relations.
GL4_LEFT_OUT = (
    "[E34,E43] = E33 - E44",
    "Serre [e3,[e3,e2]] = 0",
    "Serre [e2,[e2,e3]] = 0",
)

GROWTH_WEYL_K_MAX = 24
GROWTH_Q_K_MAX = 13
WITNESS_COUNTS = {"ore": 100, "orbit": 100, "pi": 100}


# ---------------------------------------------------------------------------
# Scenario pieces
# ---------------------------------------------------------------------------


def _element(*terms):
    """A skew element in scenario form from (key, numerator text) pairs."""
    return {"terms": [{"key": list(key), "num": num} for key, num in terms]}


def _growth_job(name, frame, k_max, **expect):
    dims = [(k + 1) * (k + 2) // 2 for k in range(1, k_max + 1)]
    return {
        "name": name, "op": "growth_profile", "frame": frame, "k_max": k_max,
        "expect": {"dims": dims, **expect},
        "bench": {"values": {"dims": dims}},
    }


def _trial_seed(seed, index, label):
    digest = hashlib.sha256(f"{seed}/{index}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _gen(name):
    return {"gen": name}


def _comm(a, b):
    return {"comm": [a, b]}


def _sum(*terms):
    return {"sum": list(terms)}


def _scaled(c, e):
    return {"scale": [str(c), e]}


def gl_relations(n):
    """The gl_n generator relations plus the Serre relations, in the
    expression language and with the check names skewmon's own table uses."""
    E = lambda i, j: _gen(f"E{i}{j}")  # noqa: E731
    rels = []
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            rels.append((f"[E{k}{k},E{l}{l}] = 0", _comm(E(k, k), E(l, l))))
    for k in range(1, n + 1):
        for l in range(1, n):
            c = (k == l) - (k == l + 1)
            rels.append((f"[E{k}{k},E{l}{l + 1}] = {c}*E{l}{l + 1}",
                         _sum(_comm(E(k, k), E(l, l + 1)), _scaled(-c, E(l, l + 1)))))
            rels.append((f"[E{k}{k},E{l + 1}{l}] = {-c}*E{l + 1}{l}",
                         _sum(_comm(E(k, k), E(l + 1, l)), _scaled(c, E(l + 1, l)))))
    for k in range(1, n):
        for l in range(1, n):
            expr = _comm(E(k, k + 1), E(l + 1, l))
            if k == l:
                rels.append((f"[E{k}{k + 1},E{l + 1}{l}] = E{k}{k} - E{k + 1}{k + 1}",
                             _sum(expr, _scaled(-1, E(k, k)), _scaled(1, E(k + 1, k + 1)))))
            else:
                rels.append((f"[E{k}{k + 1},E{l + 1}{l}] = 0", expr))
    for k in range(1, n):
        for l in range(1, n):
            ek, el, fk, fl = E(k, k + 1), E(l, l + 1), E(k + 1, k), E(l + 1, l)
            if abs(k - l) == 1:
                rels.append((f"Serre [e{k},[e{k},e{l}]] = 0", _comm(ek, _comm(ek, el))))
                rels.append((f"Serre [f{k},[f{k},f{l}]] = 0", _comm(fk, _comm(fk, fl))))
            elif k < l:
                rels.append((f"[e{k},e{l}] = 0", _comm(ek, el)))
                rels.append((f"[f{k},f{l}] = 0", _comm(fk, fl)))
    return [{"name": name, "expr": expr} for name, expr in rels]


def _gl_generator_names(n):
    names = [f"E{k}{k}" for k in range(1, n + 1)]
    names += [f"E{k}{k + 1}" for k in range(1, n)] + [f"E{k + 1}{k}" for k in range(1, n)]
    return sorted(names)


def _invariance_job(n):
    checks = [f"{name} is G-invariant" for name in _gl_generator_names(n)]
    return {"name": f"gl_{n} generator invariance", "op": "invariance",
            "bench": {"checks": checks}}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _growth():
    weyl = [_element(((0, 0), "1")), _element(((0, 0), "x1")), _element(((1, 0), "1"))]
    qframe = [_element(((0,), "1")), _element(((0,), "q*x1")),
              _element(((1,), "1"), ((0,), "q"))]
    return [
        {"title": "growth: Weyl frame", "algebra": {"kind": "shift_algebra", "n": 2, "m": 2},
         "jobs": [_growth_job("Weyl frame {1, x1, e1}", weyl, GROWTH_WEYL_K_MAX,
                              slope_interval=["9/5", "11/5"])]},
        {"title": "growth: q-frame", "algebra": {"kind": "qshift_algebra", "n": 1, "m": 1},
         "jobs": [_growth_job("q-frame {1, q*x1, e1 + q}", qframe, GROWTH_Q_K_MAX)]},
    ]


def _witness(seed, index):
    def battery(name, op, count, **extra):
        job = {"name": name, "op": op, "count": count,
               "seed": _trial_seed(seed, index, op), **extra}
        job["bench"] = {"count": count}
        return job

    n = WITNESS_COUNTS
    return [
        {"title": "witness: Ore witnesses", "algebra": {"kind": "shift_algebra", "n": 2, "m": 2},
         "jobs": [battery("random Ore witnesses", "ore_witness_random", n["ore"])]},
        {"title": "witness: orbit sums",
         "algebra": {"kind": "shift_algebra", "n": 2, "m": 2, "group": [[2, 1]]},
         "jobs": [battery("orbit-sum identities", "orbit_identities", n["orbit"])]},
        {"title": "witness: standard identities",
         "algebra": {"kind": "shift_algebra", "n": 1, "m": 1},
         "jobs": [battery("repeated-argument s_3", "standard_identity_repeated", n["pi"],
                          degree=3)]},
    ]


def _relations():
    gl3 = [r["name"] for r in gl_relations(3)]
    gl4 = [r for r in gl_relations(4) if r["name"] not in GL4_LEFT_OUT]
    thetas = ["theta1^2 = 0", "theta2^2 = 0", "theta3^2 = 0", "braid theta1 theta2",
              "braid theta2 theta3", "[theta1, theta3] = 0"]
    return [
        {"title": "relations: gl_3", "algebra": {"kind": "gt", "n": 3}, "jobs": [
            {"name": "gl_3 relation table", "op": "verify_relations", "relations": "gl",
             "bench": {"checks": gl3}},
            _invariance_job(3),
            {"name": "support lattice", "op": "support_lattice_rank",
             "expect": {"rank": 3, "divisors": [1, 1, 1]},
             "bench": {"values": {"rank": 3, "divisors": [1, 1, 1]}}},
        ]},
        {"title": "relations: gl_4", "algebra": {"kind": "gt", "n": 4}, "jobs": [
            {"name": "gl_4 relation table, three outliers left out", "op": "verify_relations",
             "relations": gl4, "bench": {"checks": [r["name"] for r in gl4]}},
            _invariance_job(4),
        ]},
        {"title": "relations: nilHecke S_4", "algebra": {"kind": "nilhecke", "n": 4}, "jobs": [
            {"name": "theta relations", "op": "theta_relations", "bench": {"checks": thetas}},
        ] + [
            {"name": f"membership of theta{i}", "op": "hecke_check", "element": f"theta{i}",
             "mode": "degenerate", "bench": {}}
            for i in (1, 2, 3)
        ]},
        {"title": "relations: Witten-Woronowicz GWA",
         "algebra": {"kind": "gwa", "preset": "witten-woronowicz"}, "jobs": [
            {"name": "defining relations", "op": "verify_gwa", "bench": {}},
            {"name": "degree-4 center", "op": "center_candidates", "degree_bound": 4,
             "expect": {"basis": ["1"], "dimension": 1},
             "bench": {"values": {"basis": ["1"], "dimension": 1}}},
        ]},
    ]


def scenarios(workload, seed, index=0):
    """Scenario dicts for pass ``index`` of ``workload``.

    Only ``witness`` depends on ``seed`` and ``index``; the other two give the
    same scenarios on every pass.  Each job's ``bench`` block holds the exact
    expectations the gate checks; ``program_input`` removes it.
    """
    if workload == "growth":
        return _growth()
    if workload == "witness":
        return _witness(seed, index)
    if workload == "relations":
        return _relations()
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def program_input(scenario):
    """The scenario as skewmon receives it: the ``bench`` blocks removed."""
    jobs = [{k: v for k, v in job.items() if k != "bench"} for job in scenario["jobs"]]
    return {**scenario, "jobs": jobs}
