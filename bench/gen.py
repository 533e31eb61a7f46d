"""Seeded workload generator for the benchmark.

Everything here uses the standard library only and lives outside the
``smelloc`` package, so the package's "no random number generator linked in"
guarantee still holds. The same seed always writes the same bytes.

Source files are Java-like text built from English roots with inflecting
suffixes (so the stemmer merges variants the way it does on real code),
spelled as camelCase, PascalCase, snake_case and UPPER_SNAKE identifiers with
acronyms and digit seams, plus comments and string literals. Root choice
follows a Zipf law. Bug reports mix terms of their gold files with unrelated
terms and English filler, so the baseline is neither trivial nor hopeless.
Smell reports carry all 16 smell types, with method signatures on
method-level types; some types are over-represented on the modules bug
reports later touch. Gold sets are redrawn until the risk-derived selector
sets are nonempty and distinct, so ``config-search`` always runs and its
work varies little between seeds.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from itertools import accumulate
from pathlib import Path

ROOTS = """
account action adapt address alert align alloc anchor append apply archive
assign attach audit author balance batch bind block bound branch broker
buffer build bundle cache call cancel capture cell chain channel charge
check chunk claim class clean clear client clip clock close cluster code
collect column command commit compact compare compile complete compress
compute config connect consume contain content context control convert
copy count create credit cursor custom cycle debug decode default defer
delete deliver depend deploy detect digest direct dispatch display
document domain download draft drive edit element emit enable encode
engine entry error escape event except execute expand export extract
factor fetch field filter finish flag flush fold follow format forward
frame gather generate group guard handle hash header heap index inject
input insert inspect install invoke invoice item join journal key label
launch layer layout lease limit link list listen load lock log lookup
manage map mark match merge message meter method migrate mirror model
monitor mount move node notify number object observe offset open option
order output owner pack page parse partition patch path pause peer
permit persist pipe place plan poll pool port post predict prefer prepare
press print process produce profile project prompt protect provide proxy
publish pull push query queue quote range rank read record recover
reduce refer refresh region register reject relay release remote remove
render repair replace report request reserve reset resolve resource
restore result resume retain retry return review route rule sample
save scale scan schedule schema scope score search secure segment select
send sequence serial server session settle shard share shift signal
snapshot socket sort source split stack stage start state status step
store stream style submit subscribe suggest supply support suspend switch
sync table target task template tenant test thread ticket token topic
trace track transact transfer transform translate tree trigger trust
tune type update upload user valid value verify version view visit
volume wait watch window worker wrap write
""".split()

# Inflections that Porter stemming folds back onto the root, mostly.
SUFFIXES = ("", "", "", "s", "ed", "ing", "er", "ers", "ion", "ions", "able", "ment")

ACRONYMS = ("HTTP", "XML", "URL", "JSON", "IO", "DB", "SQL", "UI", "API", "UTF8",
            "TCP", "CSV", "ID", "UUID", "SSL")

SYLLABLES = ("ka", "lor", "ven", "tis", "mar", "qu", "zen", "dro", "pel", "sar",
             "vik", "nor", "bex", "tal", "run", "cor", "fin", "gal", "hov", "jem")

FILLER = """
the a an when we it is was not this that should after before on in with for
to of and but then user users page click clicked fails failed failing crash
crashes wrong always sometimes never again see seen attached please steps
reproduce expected actual behavior instead still works worked broken bug
problem happens occurs while during every some all new old value null
""".split()

JAVA_TYPES = ("int", "long", "boolean", "String", "List<String>", "Map<String, Object>",
              "byte[]", "double", "Object")

CLASS_SMELLS = ("Blob Class", "Data Class", "Distorted Hierarchy", "God Class",
                "Refused Parent Bequest", "Schizophrenic Class", "Tradition Breaker")
METHOD_SMELLS = ("Blob Operation", "Data Clumps", "External Duplication",
                 "Feature Envy", "Intensive Coupling", "Internal Duplication",
                 "Message Chains", "Shotgun Surgery", "Sibling Duplication")
# Rate of each smell type on bug-prone and on other modules. God Class and
# Shotgun Surgery mark nearly every prone module and few others, so their
# relative risk beats the any-smell total and selectors s2 to s5 are never
# empty. Four types lean clearly toward prone modules, three mildly, and the
# other seven lean away. The tiers keep the derived selector sets apart, so
# the number of distinct smell maps varies little from seed to seed.
SMELL_RATES = {t: (0.03, 0.12) for t in CLASS_SMELLS + METHOD_SMELLS}
SMELL_RATES.update({"God Class": (0.85, 0.005), "Shotgun Surgery": (0.6, 0.01)})
SMELL_RATES.update({t: (0.3, 0.03) for t in ("Blob Class", "Schizophrenic Class",
                                              "Blob Operation", "Feature Envy")})
SMELL_RATES.update({t: (0.15, 0.07) for t in ("Data Class", "Message Chains",
                                               "Intensive Coupling")})


def inflect(root: str, suffix: str) -> str:
    if not suffix:
        return root
    if root.endswith("e") and suffix[0] in "aeio":
        return root[:-1] + suffix
    if root.endswith("y") and suffix[0] not in "i":
        return root[:-1] + "i" + suffix
    return root + suffix


class Zipf:
    """Draw indexes 0..n-1 with probability proportional to 1 / (k + 1)**s."""

    def __init__(self, n: int, s: float):
        self.cum = list(accumulate(1.0 / (k + 1) ** s for k in range(n)))

    def draw(self, rng: random.Random) -> int:
        return min(bisect_left(self.cum, rng.random() * self.cum[-1]), len(self.cum) - 1)


class SystemGen:
    """One synthetic project: vocabulary, files, reports and smells."""

    def __init__(self, rng: random.Random, name: str, n_modules: int):
        self.rng = rng
        self.name = name
        # Coined project words give the vocabulary a long tail of rare terms.
        roots = ROOTS + [self._coin() for _ in range(300)]
        rng.shuffle(roots)
        self.roots = roots
        self.zipf = Zipf(len(roots), 1.05)
        self.packages = [self._word() for _ in range(max(3, n_modules // 40))]
        self.modules: list[str] = []
        self.classes: list[str] = []
        self.topics: list[list[str]] = []
        self.methods: list[list[str]] = []
        seen = set()
        while len(self.modules) < n_modules:
            cls = self._class_name()
            if cls in seen:
                continue
            seen.add(cls)
            pkg = rng.choice(self.packages)
            self.classes.append(cls)
            self.modules.append(f"org/{name}/{pkg}/{cls}.java")
            # A module's topic: a handful of mid-frequency roots it is about.
            self.topics.append([self.roots[rng.randrange(8, len(self.roots))]
                                for _ in range(rng.randint(4, 7))])
            self.methods.append([])
        # Latent bug-proneness drives both smells and gold sets.
        self.prone = [rng.random() < 0.25 for _ in self.modules]

    # -------------------------------------------------------------- words

    def _coin(self) -> str:
        return "".join(self.rng.choice(SYLLABLES) for _ in range(self.rng.randint(2, 3)))

    def _root(self, topic: list[str] | None = None) -> str:
        if topic and self.rng.random() < 0.55:
            return self.rng.choice(topic)
        return self.roots[self.zipf.draw(self.rng)]

    def _word(self, topic=None) -> str:
        return inflect(self._root(topic), self.rng.choice(SUFFIXES))

    def _class_name(self, topic=None) -> str:
        parts = [self._word(topic).capitalize() for _ in range(self.rng.randint(1, 3))]
        if self.rng.random() < 0.15:
            parts.insert(self.rng.randrange(len(parts) + 1), self.rng.choice(ACRONYMS))
        return "".join(parts)

    def identifier(self, topic=None) -> str:
        rng = self.rng
        words = [self._word(topic) for _ in range(rng.randint(1, 3))]
        style = rng.random()
        if style < 0.55:
            ident = words[0] + "".join(w.capitalize() for w in words[1:])
        elif style < 0.75:
            ident = "_".join(words)
        elif style < 0.85:
            ident = "_".join(w.upper() for w in words)
        else:
            ident = words[0] + rng.choice(ACRONYMS) + "".join(w.capitalize() for w in words[1:])
        if rng.random() < 0.08:
            ident += str(rng.randint(2, 64))
        elif rng.random() < 0.04:
            ident += str(rng.randint(1, 9)) + rng.choice(words).capitalize()
        return ident

    def sentence(self, topic=None) -> str:
        words = []
        for _ in range(self.rng.randint(5, 12)):
            if self.rng.random() < 0.45:
                words.append(self.rng.choice(FILLER))
            else:
                words.append(self._word(topic))
        return " ".join(words)

    # -------------------------------------------------------------- files

    def source(self, i: int, n_methods: int) -> str:
        rng = self.rng
        topic = self.topics[i]
        cls = self.classes[i]
        pkg = self.modules[i].split("/")[2]
        out = [f"/*\n * {self.sentence(topic)}\n * {self.sentence(topic)}\n */",
               f"package org.{self.name}.{pkg};", ""]
        for _ in range(rng.randint(2, 6)):
            out.append(f"import org.{self.name}.{rng.choice(self.packages)}."
                       f"{rng.choice(self.classes)};")
        parent = rng.choice(self.classes)
        out += ["", f"/** {self.sentence(topic)} */",
                f"public class {cls} extends {parent} {{"]
        for _ in range(rng.randint(2, 6)):
            name = "_".join(self._word(topic).upper() for _ in range(rng.randint(1, 3)))
            out.append(f"    private static final int {name} = {rng.randint(0, 4096)};")
        fields = [self.identifier(topic) for _ in range(rng.randint(2, 6))]
        for f in fields:
            out.append(f"    private {rng.choice(JAVA_TYPES)} {f};")
        for _ in range(n_methods):
            mname = self.identifier(topic)
            mname = mname[0].lower() + mname[1:]
            params = [(rng.choice(JAVA_TYPES), self.identifier(topic))
                      for _ in range(rng.randint(0, 3))]
            self.methods[i].append(f"{mname}({','.join(t for t, _ in params)})")
            out.append("")
            out.append(f"    /** {self.sentence(topic)} */")
            out.append(f"    public {rng.choice(JAVA_TYPES)} {mname}("
                       + ", ".join(f"{t} {p}" for t, p in params) + ") {")
            for _ in range(rng.randint(2, 7)):
                kind = rng.random()
                a, b = self.identifier(topic), self.identifier(topic)
                if kind < 0.3:
                    out.append(f"        {a} = {rng.choice(fields)}.{b}({self.identifier(topic)});")
                elif kind < 0.5:
                    out.append(f"        if ({a} == null) {{\n            throw new "
                               f"{self._class_name(topic)}Exception(\"{self.sentence(topic)}\");\n        }}")
                elif kind < 0.65:
                    out.append(f"        for (int i = 0; i < {a}.size(); i++) {{\n"
                               f"            {b}.{self.identifier(topic)}({a}.get(i));\n        }}")
                elif kind < 0.8:
                    out.append(f"        // {self.sentence(topic)}")
                else:
                    out.append(f"        log.debug(\"{self.sentence(topic)}\" + {a});")
            out.append(f"        return {rng.choice(fields)};")
            out.append("    }")
        out.append("}")
        return "\n".join(out) + "\n"

    def method_signature(self, i: int) -> str:
        if self.methods[i]:
            return self.rng.choice(self.methods[i])
        name = self.identifier(self.topics[i])
        return f"{name[0].lower()}{name[1:]}({self.rng.choice(JAVA_TYPES)})"

    # ----------------------------------------------------------- reports

    def bug_reports(self, n: int, signal: float) -> list[dict]:
        """Reports whose gold sets lean toward bug-prone modules.

        ``signal`` is the share of report words drawn from the gold modules'
        topics and names; the rest is filler and unrelated vocabulary.
        """
        rng = self.rng
        weights = list(accumulate(5.0 if p else 1.0 for p in self.prone))
        reports = []
        for b in range(n):
            k = 1 if rng.random() < 0.6 else rng.randint(2, 3)
            gold = set()
            while len(gold) < k:
                gold.add(bisect_left(weights, rng.random() * weights[-1]))
            gold_topics = [r for g in gold for r in self.topics[g]]

            def words(count: int) -> str:
                out = []
                for _ in range(count):
                    x = rng.random()
                    if x < signal:
                        g = rng.choice(sorted(gold))
                        out.append(self.classes[g] if rng.random() < 0.1
                                   else inflect(rng.choice(gold_topics), rng.choice(SUFFIXES)))
                    elif x < signal + 0.3:
                        out.append(self._word())
                    elif x < signal + 0.35:
                        out.append(rng.choice(self.classes))
                    else:
                        out.append(rng.choice(FILLER))
                return " ".join(out)

            reports.append({
                "id": f"{self.name.upper()}-{b + 1}",
                "summary": words(rng.randint(5, 10)),
                "description": words(rng.randint(15, 50)),
                "gold": sorted(self.modules[g] for g in gold),
            })
        return reports

    def smells(self) -> list[dict]:
        rng = self.rng
        out = []
        for i, module in enumerate(self.modules):
            prone = self.prone[i]
            for t in CLASS_SMELLS + METHOD_SMELLS:
                rates = SMELL_RATES[t]
                risky = rates[0] > rates[1]
                if rng.random() >= rates[0 if prone else 1]:
                    continue
                count = 1 if t in CLASS_SMELLS else rng.randint(1, 3)
                for _ in range(count):
                    sev = rng.randint(4, 10) if risky and prone else rng.randint(1, 8)
                    rec = {"type": t, "module": module, "severity": sev}
                    if t in METHOD_SMELLS:
                        rec["method"] = self.method_signature(i)
                    out.append(rec)
        return out


def _risk_row(group: set, buggy: set, universe: int, buggy_total: int):
    """(risk, relative risk) of a module group, as smelloc's risk table
    defines them; None where undefined."""
    m_c, b_c = universe - len(group), buggy_total - len(group & buggy)
    risk = len(group & buggy) / len(group) if group else None
    rest = b_c / m_c if m_c else None
    if risk is None or rest is None:
        return risk, None
    if risk == 0.0:
        return risk, 0.0
    return risk, risk / rest if rest else math.inf


def _selectors_apart(systems: list[SystemGen], smells: list[list[dict]],
                     bugs: list[list[dict]]) -> bool:
    """Whether the risk-derived selector sets, pooled over systems, are all
    nonempty, pairwise different and each mix class- and method-level types.

    The sets follow smelloc's derivation: s2 relative risk above 1, s3 risk
    above the any-smell total's, s4 relative risk above the total's, s5 the
    five types with the highest relative risk. Some type must also beat the
    total's relative risk by a clear margin, so the sets do not hinge on
    rounding.
    """
    by_type: dict[str, set] = {t: set() for t in SMELL_RATES}
    buggy, universe = set(), 0
    for k, (system, inst, reps) in enumerate(zip(systems, smells, bugs)):
        universe += len(system.modules)
        buggy |= {(k, g) for r in reps for g in r["gold"]}
        for rec in inst:
            by_type[rec["type"]].add((k, rec["module"]))
    total_risk, total_rr = _risk_row(set().union(*by_type.values()), buggy,
                                     universe, len(buggy))
    if total_rr is None or math.isinf(total_rr):
        return False
    rows = {t: _risk_row(g, buggy, universe, len(buggy)) for t, g in by_type.items()}
    ranked = sorted((rr, t) for t, (_, rr) in rows.items() if rr is not None)[::-1]
    if len(ranked) < 5 or ranked[0][0] <= 1.1 * total_rr:
        return False
    sets = [
        {t for t, (_, rr) in rows.items() if rr is not None and rr > 1.0},
        {t for t, (risk, _) in rows.items() if risk is not None and risk > total_risk},
        {t for t, (_, rr) in rows.items() if rr is not None and rr > total_rr},
        {t for rr, t in ranked if rr >= ranked[4][0]},
    ]
    return (len({frozenset(x) for x in sets}) == len(sets)
            and all(x & set(CLASS_SMELLS) and x & set(METHOD_SMELLS) for x in sets))


def _draw_reports(systems, smells, reports: int, signal: float) -> list[list[dict]]:
    """Draw every system's bug reports, again until the selectors are apart.

    Gold sets are a small sample, so by chance the smell-free modules can
    end up nearly bug-free and outrank every single smell type, which leaves
    s4 empty, or two selector sets can coincide, which changes how many
    configurations share a sweep. Redrawing from the same generator keeps
    the result a function of the seed.
    """
    while True:
        bugs = [system.bug_reports(reports, signal) for system in systems]
        if _selectors_apart(systems, smells, bugs):
            return bugs


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def write_snapshot(system: SystemGen, root: Path, methods: tuple[int, int]) -> int:
    """Write every module's source under root; returns bytes written."""
    total = 0
    for i, module in enumerate(system.modules):
        path = root / module
        path.parent.mkdir(parents=True, exist_ok=True)
        data = system.source(i, system.rng.randint(*methods)).encode("utf-8")
        path.write_bytes(data)
        total += len(data)
    return total


def gen_retrieve(out: Path, seed: int, files: int, reports: int) -> dict:
    rng = random.Random(f"retrieve:{seed}")
    system = SystemGen(rng, "shop", files)
    size = write_snapshot(system, out / "src", (6, 14))
    _write_json(out / "bugs.json", system.bug_reports(reports, signal=0.05))
    return {"files": files, "bytes": size, "reports": reports}


def gen_sweep(out: Path, seed: int, modules: int, reports: int) -> dict:
    """A module universe with an external technique's score dump, no sources."""
    rng = random.Random(f"sweep:{seed}")
    system = SystemGen(rng, "bank", modules)
    smells = system.smells()
    bugs = _draw_reports([system], [smells], reports, signal=0.0)[0]
    (out / "modules.txt").write_text("\n".join(system.modules) + "\n", encoding="utf-8")
    _write_json(out / "bugs.json", bugs)
    _write_json(out / "smells.json", smells)
    lines = 0
    with open(out / "scores.jsonl", "w", encoding="utf-8") as fh:
        for bug in bugs:
            gold = set(bug["gold"])
            for module in system.modules:
                base = rng.gauss(0.42, 0.16) if module in gold else rng.gauss(0.2, 0.1)
                score = round(max(0.0, base), 6)
                fh.write(json.dumps({"bug": bug["id"], "module": module, "score": score}))
                fh.write("\n")
                lines += 1
    return {"modules": modules, "reports": reports, "smells": len(smells),
            "score_lines": lines}


def gen_search(out: Path, seed: int, systems: int, files: int, reports: int) -> dict:
    rng = random.Random(f"search:{seed}")
    size = 0
    gens, smells = [], []
    for s in range(systems):
        name = f"sys{s + 1}"
        system = SystemGen(rng, name, files)
        size += write_snapshot(system, out / name / "src", (2, 5))
        gens.append(system)
        smells.append(system.smells())
    bugs = _draw_reports(gens, smells, reports, signal=0.05)
    for system, inst, reps in zip(gens, smells, bugs):
        root = out / system.name
        _write_json(root / "bugs.json", reps)
        _write_json(root / "smells.json", inst)
        _write_json(root / "system.json", {
            "project": system.name, "version": "1.0", "snapshot": "src",
            "bugs": "bugs.json", "smells": "smells.json"})
    return {"systems": systems, "files": systems * files, "bytes": size,
            "reports": systems * reports, "smells": sum(map(len, smells))}
