#!/usr/bin/env python3
"""Regenerate the bundled corpus of derivation files.

Each entry is built programmatically, checked against its profile, and
written to src/tenseproof/corpus/<id>.json.  Run from the repository root:

    python3 tools/build_corpus.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from tenseproof.derivation import assume, node, to_json
from tenseproof.kernel import check, expand_derived
from tenseproof.parser import parse_lwff as pl, parse_rwff as pr, render
from tenseproof.rules import AXIOMS, parse_profile
from tenseproof.syntax import Empty

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "tenseproof" / "corpus"

E = Empty()


def axiom(name):
    return node(name, AXIOMS[name])


def all_e(text, premise):
    return node("all_e", pr(text), premise)


# ---------------------------------------------------------------------------
# Base-logic axioms

def build_g1():
    a1 = assume(pl("t : G (p -> q)"), 1)
    a2 = assume(pl("t : G p"), 2)
    ge1 = node("g_e", pl("s : p -> q"), a1, assume(pr("t < s"), 3))
    ge2 = node("g_e", pl("s : p"), a2, assume(pr("t < s"), 3))
    impe = node("imp_e", pl("s : q"), ge1, ge2)
    gi = node("g_i", pl("t : G q"), impe, discharges={3}, fresh="s")
    i2 = node("imp_i", pl("t : G p -> G q"), gi, discharges={2})
    return node("imp_i", pl("t : G (p -> q) -> (G p -> G q)"), i2, discharges={1})


def build_g2():
    inner = node("g_e", pl("t : p"), assume(pl("s : G p"), 2), assume(pr("s < t"), 2))
    pe = node("p_e", pl("t : p"), assume(pl("t : P G p"), 1), inner,
              discharges={2}, fresh="s")
    return node("imp_i", pl("t : P G p -> p"), pe, discharges={1})


def build_g3():
    tr = axiom("trans_lt")
    e1 = all_e("forall y. forall z. (t < y /\\ y < z) => t < z", tr)
    e2 = all_e("forall z. (t < s /\\ s < z) => t < z", e1)
    e3 = all_e("(t < s /\\ s < r) => t < r", e2)
    ri = node("rand_i", pr("t < s /\\ s < r"),
              assume(pr("t < s"), 2), assume(pr("s < r"), 3))
    mp = node("rimp_e", pr("t < r"), e3, ri)
    ge = node("g_e", pl("r : p"), assume(pl("t : G p"), 1), mp)
    gi1 = node("g_i", pl("s : G p"), ge, discharges={3}, fresh="r")
    gi2 = node("g_i", pl("t : G G p"), gi1, discharges={2}, fresh="s")
    return node("imp_i", pl("t : G p -> G G p"), gi2, discharges={1})


def build_g4():
    big = "G (p | q) & G (p | G q) & G (G p | q)"
    disj = "G p | G q"
    a1 = lambda: assume(pl(f"t : {big}"), 1)
    a2 = lambda: assume(pl(f"t : ~({disj})"), 2)

    def pi1():
        w2 = node("and_e1", pl("t : G (p | G q)"),
                  node("and_e2", pl("t : G (p | G q) & G (G p | q)"), a1()))
        gea = node("g_e", pl("s : p | G q"), w2, assume(pr("t < s"), 3))
        br1 = node("imp_e", pl("s : false"), assume(pl("s : ~p"), 4),
                   assume(pl("s : p"), 10))
        br2 = node("imp_e", pl("s : false"), assume(pl("s : ~(G q)"), 9),
                   assume(pl("s : G q"), 10))
        ore = node("or_e", pl("s : false"), gea, br1, br2, discharges={10})
        raa6 = node("raa_bot", pl("s : G q"), ore, discharges={9})
        geq = node("g_e", pl("r : q"), raa6, assume(pr("s < r"), 7))
        bot = node("imp_e", pl("r : false"), assume(pl("r : ~q"), 6), geq)
        return node("uf1", E, bot)

    def pi2():
        w1 = node("and_e1", pl("t : G (p | q)"), a1())
        geb = node("g_e", pl("s : p | q"), w1, assume(pr("t < s"), 3))
        br1 = node("imp_e", pl("s : false"), assume(pl("s : ~p"), 4),
                   assume(pl("s : p"), 12))
        br2 = node("imp_e", pl("s : false"), assume(pl("s : ~q"), 11),
                   assume(pl("s : q"), 12))
        ore = node("or_e", pl("s : false"), geb, br1, br2, discharges={12})
        raa11 = node("raa_bot", pl("s : q"), ore, discharges={11})
        monq = node("mon", pl("r : q"), raa11, assume(pr("s = r"), 8))
        bot = node("imp_e", pl("r : false"), assume(pl("r : ~q"), 6), monq)
        return node("uf1", E, bot)

    def pi3():
        w3 = node("and_e2", pl("t : G (G p | q)"),
                  node("and_e2", pl("t : G (p | G q) & G (G p | q)"), a1()))
        gec = node("g_e", pl("r : G p | q"), w3, assume(pr("t < r"), 5))
        br1 = node("imp_e", pl("r : false"), assume(pl("r : ~(G p)"), 13),
                   assume(pl("r : G p"), 14))
        br2 = node("imp_e", pl("r : false"), assume(pl("r : ~q"), 6),
                   assume(pl("r : q"), 14))
        ore = node("or_e", pl("r : false"), gec, br1, br2, discharges={14})
        raa13 = node("raa_bot", pl("r : G p"), ore, discharges={13})
        gep = node("g_e", pl("s : p"), raa13, assume(pr("r < s"), 8))
        bot = node("imp_e", pl("s : false"), assume(pl("s : ~p"), 4), gep)
        return node("uf1", E, bot)

    conn_sr = all_e("s < r \\/ s = r \\/ r < s",
                    all_e("forall y. s < y \\/ s = y \\/ y < s", axiom("conn")))
    inner = node("ror_e", E, assume(pr("s = r \\/ r < s"), 7), pi2(), pi3(),
                 discharges={8})
    cases = node("ror_e", E, conn_sr, pi1(), inner, discharges={7})
    pi_sr = node("uf2", pl("t : false"), cases)

    raa_f = node("raa_bot", pl("r : q"), pi_sr, discharges={6})
    t_gq = node("g_i", pl("t : G q"), raa_f, discharges={5}, fresh="r")
    pi_s = node("imp_e", pl("t : false"), a2(),
                node("or_i2", pl(f"t : {disj}"), t_gq))
    raa_c = node("raa_bot", pl("s : p"), pi_s, discharges={4})
    t_gp = node("g_i", pl("t : G p"), raa_c, discharges={3}, fresh="s")
    main = node("imp_e", pl("t : false"), a2(),
                node("or_i1", pl(f"t : {disj}"), t_gp))
    raa2 = node("raa_bot", pl(f"t : {disj}"), main, discharges={2})
    return node("imp_i", pl(f"t : ({big}) -> ({disj})"), raa2, discharges={1})


def build_h1():
    a1 = assume(pl("t : H (p -> q)"), 1)
    a2 = assume(pl("t : H p"), 2)
    he1 = node("h_e", pl("s : p -> q"), a1, assume(pr("s < t"), 3))
    he2 = node("h_e", pl("s : p"), a2, assume(pr("s < t"), 3))
    impe = node("imp_e", pl("s : q"), he1, he2)
    hi = node("h_i", pl("t : H q"), impe, discharges={3}, fresh="s")
    i2 = node("imp_i", pl("t : H p -> H q"), hi, discharges={2})
    return node("imp_i", pl("t : H (p -> q) -> (H p -> H q)"), i2, discharges={1})


def build_h2():
    inner = node("h_e", pl("t : p"), assume(pl("s : H p"), 2), assume(pr("t < s"), 2))
    fe = node("f_e", pl("t : p"), assume(pl("t : F H p"), 1), inner,
              discharges={2}, fresh="s")
    return node("imp_i", pl("t : F H p -> p"), fe, discharges={1})


# ---------------------------------------------------------------------------
# Extension axioms

def build_first_point():
    goal = "H false | P H false"
    nopred = lambda m: assume(pr("forall y. !(y < s)"), m)

    case_lt = node("rimp_e", E, all_e("!(t < s)", nopred(2)),
                   assume(pr("t < s"), 3))

    mon_us = node("mon", pr("u < s"), assume(pr("u < t"), 5),
                  assume(pr("t = s"), 4))
    ub = node("uf2", pl("u : false"),
              node("rimp_e", E, all_e("!(u < s)", nopred(2)), mon_us))
    hf = node("h_i", pl("t : H false"), ub, discharges={5}, fresh="u")
    case_eq = node("uf1", E, node("imp_e", pl("t : false"),
                                  assume(pl(f"t : ~({goal})"), 1),
                                  node("or_i1", pl(f"t : {goal}"), hf)))

    vb = node("uf2", pl("v : false"),
              node("rimp_e", E, all_e("!(v < s)", nopred(2)),
                   assume(pr("v < s"), 6)))
    shf = node("h_i", pl("s : H false"), vb, discharges={6}, fresh="v")
    phf = node("p_i", pl("t : P H false"), shf, assume(pr("s < t"), 4))
    case_gt = node("uf1", E, node("imp_e", pl("t : false"),
                                  assume(pl(f"t : ~({goal})"), 1),
                                  node("or_i2", pl(f"t : {goal}"), phf)))

    inner = node("ror_e", E, assume(pr("t = s \\/ s < t"), 3),
                 case_eq, case_gt, discharges={4})
    conn_ts = all_e("t < s \\/ t = s \\/ s < t",
                    all_e("forall y. t < y \\/ t = y \\/ y < t", axiom("conn")))
    cases = node("ror_e", E, conn_ts, case_lt, inner, discharges={3})
    exe = node("ex_e", E, axiom("first"), cases, discharges={2}, fresh="s")
    bottom = node("uf2", pl("t : false"), exe)
    return node("raa_bot", pl(f"t : {goal}"), bottom, discharges={1})


def build_rser():
    top = node("imp_i", pl("s : true"), assume(pl("s : false"), 2),
               discharges={2})
    fi = node("f_i", pl("t : F true"), top, assume(pr("t < s"), 1))
    exy = all_e("exists y. t < y", axiom("rser"))
    return node("ex_e", pl("t : F true"), exy, fi, discharges={1}, fresh="s")


def build_rdens():
    between = lambda m: assume(pr("t < r /\\ r < s"), m)
    fi1 = node("f_i", pl("r : F p"), assume(pl("s : p"), 2),
               node("rand_e2", pr("r < s"), between(4)))
    fi2 = node("f_i", pl("t : F F p"), fi1,
               node("rand_e1", pr("t < r"), between(4)))
    bot = node("imp_e", pl("t : false"), assume(pl("t : ~(F F p)"), 3), fi2)
    minor = node("uf1", E, bot)
    dens_inst = all_e("t < s => exists z. t < z /\\ z < s",
                      all_e("forall y. t < y => exists z. t < z /\\ z < y",
                            axiom("dens")))
    exz = node("rimp_e", pr("exists z. t < z /\\ z < s"), dens_inst,
               assume(pr("t < s"), 2))
    exe = node("ex_e", E, exz, minor, discharges={4}, fresh="r")
    raa = node("raa_bot", pl("t : F F p"), node("uf2", pl("t : false"), exe),
               discharges={3})
    fe = node("f_e", pl("t : F F p"), assume(pl("t : F p"), 1), raa,
              discharges={2}, fresh="s")
    return node("imp_i", pl("t : F p -> F F p"), fe, discharges={1})


def build_rdiscr():
    big = "F true & p & H p"
    goal = "F H p"
    a1 = lambda: assume(pl(f"t : {big}"), 1)
    a4 = lambda: assume(pr("t < s /\\ !exists u. t < u /\\ u < s"), 4)

    # no point falls strictly between t and s
    ei = node("ex_i", pr("exists u. t < u /\\ u < s"),
              node("rand_i", pr("t < r /\\ r < s"),
                   assume(pr("t < r"), 7), assume(pr("r < s"), 5)))
    ne = node("rand_e2", pr("!exists u. t < u /\\ u < s"), a4())
    br_between = node("rimp_e", E, ne, ei)

    tp = node("and_e1", pl("t : p"), node("and_e2", pl("t : p & H p"), a1()))
    rp_eq = node("mon", pl("r : p"), tp, assume(pr("t = r"), 8))
    br_eq = node("uf1", E, node("imp_e", pl("r : false"),
                                assume(pl("r : ~p"), 6), rp_eq))

    hp = node("and_e2", pl("t : H p"), node("and_e2", pl("t : p & H p"), a1()))
    rp_lt = node("h_e", pl("r : p"), hp, assume(pr("r < t"), 8))
    br_lt = node("uf1", E, node("imp_e", pl("r : false"),
                                assume(pl("r : ~p"), 6), rp_lt))

    inner = node("ror_e", E, assume(pr("t = r \\/ r < t"), 7), br_eq, br_lt,
                 discharges={8})
    conn_tr = all_e("t < r \\/ t = r \\/ r < t",
                    all_e("forall y. t < y \\/ t = y \\/ y < t", axiom("conn")))
    cases = node("ror_e", E, conn_tr, br_between, inner, discharges={7})

    raa6 = node("raa_bot", pl("r : p"), node("uf2", pl("r : false"), cases),
                discharges={6})
    hi = node("h_i", pl("s : H p"), raa6, discharges={5}, fresh="r")
    fi = node("f_i", pl(f"t : {goal}"), hi, node("rand_e1", pr("t < s"), a4()))
    minor = node("uf1", E, node("imp_e", pl("t : false"),
                                assume(pl(f"t : ~({goal})"), 2), fi))

    rd_inst = all_e("t < w => exists z. t < z /\\ !exists u. t < u /\\ u < z",
                    all_e("forall y. t < y => "
                          "exists z. t < z /\\ !exists u. t < u /\\ u < z",
                          axiom("rdiscr")))
    exz = node("rimp_e", pr("exists z. t < z /\\ !exists u. t < u /\\ u < z"),
               rd_inst, assume(pr("t < w"), 3))
    exe = node("ex_e", E, exz, minor, discharges={4}, fresh="s")

    ftrue = node("and_e1", pl("t : F true"), a1())
    fe = node("f_e", E, ftrue, exe, discharges={3}, fresh="w")
    raa2 = node("raa_bot", pl(f"t : {goal}"), node("uf2", pl("t : false"), fe),
                discharges={2})
    return node("imp_i", pl(f"t : ({big}) -> {goal}"), raa2, discharges={1})


def build_conn_canonical():
    conn_xy = all_e("x < y \\/ x = y \\/ y < x",
                    all_e("forall y. x < y \\/ x = y \\/ y < x", axiom("conn")))
    br1 = node("rimp_e", E, assume(pr("!(x < y)"), 1), assume(pr("x < y"), 4))
    br2 = node("rimp_e", E, assume(pr("!(x = y)"), 2), assume(pr("x = y"), 5))
    br3 = node("rimp_e", E, assume(pr("!(y < x)"), 3), assume(pr("y < x"), 5))
    inner = node("ror_e", E, assume(pr("x = y \\/ y < x"), 4), br2, br3,
                 discharges={5})
    cases = node("ror_e", E, conn_xy, br1, inner, discharges={4})
    c3 = node("rimp_i", pr("!(y < x) => empty"), cases, discharges={3})
    c2 = node("rimp_i", pr("!(x = y) => !(y < x) => empty"), c3, discharges={2})
    return node("rimp_i", pr("!(x < y) => !(x = y) => !(y < x) => empty"), c2,
                discharges={1})


ENTRIES = [
    ("g1", "kl", "distribution of G over implication", build_g1),
    ("g2", "kl", "duality of past and future: P G A entails A", build_g2),
    ("g3", "kl", "transitivity of the future order: G A entails G G A", build_g3),
    ("g4", "kl", "connectedness of the future order", build_g4),
    ("h1", "kl", "distribution of H over implication (mirror of g1)", build_h1),
    ("h2", "kl", "duality of future and past: F H A entails A", build_h2),
    ("first_point", "kl+first", "modal consequence of a first point", build_first_point),
    ("rser", "kl+rser", "modal consequence of right seriality: F true", build_rser),
    ("rdens", "kl+dens", "modal consequence of density: F A entails F F A", build_rdens),
    ("rdiscr", "kl+rdiscr", "modal consequence of right discreteness", build_rdiscr),
    ("conn_canonical", "kl",
     "case analysis: two unrelated, unequal points are contradictory",
     build_conn_canonical),
]


def build_entries():
    """Build and check every entry.  Yields ``(entry_id, derivation, report,
    text)`` in id order; ``text`` is the file's content, ``None`` for an
    entry that does not check."""
    built = {}
    for entry_id, profile_name, source, builder in ENTRIES:
        d = builder()
        built[entry_id] = (profile_name, source, d)

    # closed core expansions of the F rules, as their own corpus entries
    built["a2_fi"] = ("kl+rser",
                      "core expansion of the F-introduction rule "
                      "(right-seriality instance)",
                      expand_derived(built["rser"][2]))
    built["a2_fe"] = ("kl",
                      "core expansion of the F-elimination rule "
                      "(duality instance)",
                      expand_derived(built["h2"][2]))

    for entry_id, (profile_name, source, d) in sorted(built.items()):
        report = check(d, parse_profile(profile_name))
        text = None
        if report.ok:
            payload = {
                "id": entry_id,
                "profile": profile_name,
                "source": source,
                "conclusion": render(d.conclusion),
                "derivation": to_json(d),
            }
            text = json.dumps(payload, indent=1) + "\n"
        yield entry_id, d, report, text


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    failures = 0
    for entry_id, d, report, text in build_entries():
        if text is None:
            failures += 1
            print(f"{entry_id}: INVALID")
            for v in report.violations[:8]:
                print(f"    {v}")
            continue
        status = "theorem" if report.is_theorem else report.status
        path = OUT / f"{entry_id}.json"
        path.write_text(text, encoding="utf-8")
        print(f"{entry_id}: {status}, {d.node_count()} nodes -> {path.name}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
