"""Translation units for the compile_corpus workload.

Two sources:

* the repository's own fixtures: every chain source and runnable program
  in the end-to-end fixture table (tests/e2e/e2e_fixtures.h, with the
  listings of tests/test_sources.h) and every listing under assets/c,
  each with the acceptance the fixture table expects;
* seeded synthetic units: hundreds of functions drawn from the fixture
  shapes (pure-call maps, stencils, guarded updates, imperfect and
  triangular nests, fission candidates, runs of sibling loops, private
  temporaries, reductions). The seed sets nest depth, statements per
  nest, the length of sibling runs and the density of pure calls.
"""

import os
import random
import re

RAW_STRING = re.compile(
    r'inline constexpr const char\* (k\w+) = R"\((.*?)\)";', re.S)
# {"name", chain_source, is_path, runnable, expect_ok, expect_ok_inlined
FIXTURE_ROW = re.compile(
    r'\{"(\w+)",\s*([\w:"./]+),\s*(true|false),\s*(\w+),\s*'
    r'(true|false),\s*(true|false)')


class Unit:
    """One translation unit and the chain's expected verdict on it."""

    def __init__(self, name, text, accept=True, accept_inlined=True):
        self.name = name
        self.text = text
        self.accept = accept
        self.accept_inlined = accept_inlined

    def expects_ok(self, inline):
        return self.accept_inlined if inline else self.accept

    @property
    def lines(self):
        return self.text.count("\n") + 1


def _raw_strings(path):
    with open(path, encoding="utf-8") as f:
        return {m.group(1): m.group(2) for m in RAW_STRING.finditer(f.read())}


def fixture_units(root):
    """Every distinct source in the e2e fixture table plus assets/c."""
    e2e = os.path.join(root, "tests", "e2e", "e2e_fixtures.h")
    strings = _raw_strings(os.path.join(root, "tests", "test_sources.h"))
    strings.update(_raw_strings(e2e))
    with open(e2e, encoding="utf-8") as f:
        table = f.read()

    units = {}
    verdicts = {}
    for m in FIXTURE_ROW.finditer(table):
        name, source, is_path, runnable = m.group(1, 2, 3, 4)
        ok, ok_inlined = m.group(5) == "true", m.group(6) == "true"
        if is_path == "true":
            verdicts[source.strip('"')] = (ok, ok_inlined)
            continue
        sources = [(name, source.split("::")[-1])]
        if runnable != "nullptr":
            sources.append((name + "_run", runnable))
        for unit_name, key in sources:
            text = strings[key]
            if text not in units:
                units[text] = Unit(unit_name, text, ok, ok_inlined)

    assets = os.path.join(root, "assets", "c")
    for fname in sorted(os.listdir(assets)):
        if not fname.endswith(".c"):
            continue
        rel = "assets/c/" + fname
        with open(os.path.join(assets, fname), encoding="utf-8") as f:
            text = f.read()
        ok, ok_inlined = verdicts.get(rel, (True, True))
        if text not in units:
            units[text] = Unit("asset_" + fname[:-2], text, ok, ok_inlined)
    return list(units.values())


# --- synthetic units --------------------------------------------------------

HELPERS = """\
#include <stdlib.h>

pure float sq(float x) { return x * x + 1.0f; }
pure float mix(float a, float b) { return 0.75f * a + 0.25f * b; }
pure float rowsum(pure float* r, int k) {
  float s = 0.0f;
  for (int t = 0; t < k; t++)
    s += r[t];
  return s;
}
pure float poly(float x) {
  float y = x;
  for (int t = 0; t < 4; t++)
    y = 0.5f * (y + x / (y + 1.0f));
  return y;
}
"""

ITERS = "ijk"


class _Gen:
    def __init__(self, rng, depth, stmts, sibling_run, call_density):
        self.rng = rng
        self.depth = depth
        self.stmts = stmts
        self.sibling_run = sibling_run
        self.call_density = call_density

    def _read(self, d):
        """An expression reading the inputs at iteration depth d."""
        rng = self.rng
        i = ITERS[:d]
        if d == 1:
            base = rng.choice([f"x[{i}]", f"x[{i} + 1]", f"v[{i}]"])
        else:
            a, b = i[0], i[1]
            base = rng.choice([f"a[{a}][{b}]", f"b[{b}][{a}]", f"a[{a}][{b} + 1]",
                               f"x[{a}] * v[{b}]"])
        if rng.random() < self.call_density:
            call = rng.choice(["sq({})", "poly({})", "mix({}, 2.0f)"])
            base = call.format(base)
            if d >= 2 and rng.random() < 0.3:
                base = f"{base} + rowsum((pure float*)a[{i[0]}], m)"
        return base

    def _target(self, d, s):
        i = ITERS[:d]
        if d == 1:
            return f"o{s}[{i}]"
        return f"p{s}[{i[0]}][{i[1]}]"

    def _nest(self, shape, ind="  "):
        d = self.depth if shape != "map1" else 1
        lines = []
        heads = []
        for level in range(d):
            it = ITERS[level]
            if shape == "triangular" and level == 1:
                heads.append(f"for (int {it} = 0; {it} <= {ITERS[0]}; {it}++)")
            elif shape == "stencil":
                heads.append(f"for (int {it} = 1; {it} < n - 1; {it}++)")
            else:
                heads.append(f"for (int {it} = 0; {it} < n; {it}++)")
        body_d = min(d, 2)
        body = []
        if shape == "stencil" and d >= 2:
            body.append("p0[i][j] = 0.25f * (a[i - 1][j] + a[i + 1][j] + "
                        "a[i][j - 1] + a[i][j + 1]);")
        elif shape == "guarded":
            body.append(f"if (i < m) o0[i] = {self._read(1)};")
            body.append(f"else o1[i] = {self._read(1)};")
            body.append("o2[i] = o0[i + m] + o1[i];")
        elif shape == "fission":
            body.append("if (i > 0) o0[i] = o0[i - 1] + x[i];")
            body.append(f"o1[i] = {self._read(1)};")
        elif shape == "private":
            body.append(f"t = {self._read(1)};")
            body.append("o0[i] = t * 2.0f;")
        elif shape == "reduce":
            body.append(f"acc = acc + {self._read(1)};")
        else:
            for s in range(self.stmts):
                body.append(f"{self._target(body_d, s)} = {self._read(body_d)};")
        if shape in ("guarded", "fission", "private", "reduce"):
            heads = heads[:1]
        if shape == "imperfect" and d >= 2:
            lines.append(f"{ind}{heads[0]} {{")
            lines.append(f"{ind}  o0[i] = 0.0f;")
            lines.append(f"{ind}  {heads[1]}")
            lines.append(f"{ind}    o0[i] = o0[i] + {self._read(2)};")
            lines.append(f"{ind}  o0[i] = o0[i] * 0.5f;")
            lines.append(f"{ind}}}")
            return lines
        for level, h in enumerate(heads):
            lines.append(ind + "  " * level + h + (" {" if level == len(heads) - 1 else ""))
        for b in body:
            lines.append(ind + "  " * len(heads) + b)
        lines.append(ind + "  " * (len(heads) - 1) + "}")
        return lines

    def function(self, name):
        shape = self.rng.choice(["map", "map", "stencil", "guarded",
                                 "imperfect", "triangular", "fission",
                                 "siblings", "private", "reduce", "map1"])
        params = ("float** a, float** b, float* x, float* v, float** p0, "
                  "float** p1, float** p2, float* o0, float* o1, float* o2, "
                  "float* out, int n, int m")
        lines = [f"void {name}({params}) {{"]
        if shape == "private":
            lines.append("  float t;")
        if shape == "reduce":
            lines.append("  float acc = 0.0f;")
        if shape == "siblings":
            for s in range(self.sibling_run):
                src = self._read(1)
                lines.append("  for (int i = 0; i < n; i++)")
                lines.append(f"    o{s % 3}[i] = {src};")
        else:
            lines.extend(self._nest(shape))
        if shape == "reduce":
            lines.append("  out[0] = acc;")
        lines.append("}")
        return "\n".join(lines)


def synthetic_units(seed, count=3, functions=130):
    """`count` seeded units of `functions` kernels each."""
    units = []
    for u in range(count):
        rng = random.Random(seed * 1000003 + u)
        parts = [HELPERS]
        for f in range(functions):
            gen = _Gen(rng,
                       depth=rng.choice([1, 2, 2, 3]),
                       stmts=rng.randint(1, 3),
                       sibling_run=rng.randint(2, 4),
                       call_density=rng.choice([0.0, 0.3, 0.6, 0.9]))
            parts.append(gen.function(f"k{u}_{f}"))
        units.append(Unit(f"synthetic{u}", "\n\n".join(parts) + "\n"))
    return units
