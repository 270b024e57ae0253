"""Deterministic generators for textual datasets.

Several workloads consume program text (the mcc compiler, compress) or
structured text (eqntott equations, spice netlists).  Everything here is
seeded, so datasets are bit-for-bit reproducible.
"""
from __future__ import annotations

import random
from typing import List, Sequence

_C_FRAGMENTS = [
    """int {name}(p, n) {{
    int i = 0; int acc = 0;
    while (i < n) {{
        acc = acc + peek(p + i) * {m1};
        if (acc > {lim}) {{ acc = acc % {mod}; }}
        i = i + 1;
    }}
    return acc;
}}""",
    """int {name}(key, size) {{
    int idx = key % size;
    while (probe(idx) != 0) {{
        if (probe(idx) == key) {{ return idx; }}
        idx = idx + 1;
        if (idx >= size) {{ idx = 0; }}
    }}
    insert(idx, key);
    return idx;
}}""",
    """int {name}(a, b) {{
    int best = 0; int i = 0;
    for (i = 0; i < {m1}; i = i + 1) {{
        int cand = score(a, i) - cost(b, i);
        if (cand > best && valid(i)) {{ best = cand; }}
    }}
    return best;
}}""",
    """int {name}(node) {{
    if (node == 0) {{ return 0; }}
    int left = {prev}(child(node, 0));
    int right = {prev}(child(node, 1));
    if (left > right) {{ return left + 1; }}
    return right + 1;
}}""",
    """int {name}(buf, len) {{
    int state = {m1}; int i = 0;
    while (i < len) {{
        int c = peek(buf + i);
        if (c == {m2}) {{ state = state * 2 + 1; }}
        else {{ if (c > {m3}) {{ state = state + c; }} else {{ state = state - 1; }} }}
        i = i + 1;
    }}
    return state;
}}""",
]

_FORTRAN_FRAGMENTS = [
    """int {name}(n) {{
    int i = 0; int s = 0;
    for (i = 0; i < n; i = i + 1) {{
        s = s + a(i) * b(i) + c(i) * {m1};
    }}
    return s;
}}""",
    """int {name}(n, m) {{
    int i = 0; int j = 0; int acc = 0;
    for (i = 0; i < n; i = i + 1) {{
        for (j = 0; j < m; j = j + 1) {{
            acc = acc + geta(i, j) * getb(j, i);
        }}
        seta(i, acc / {m1});
    }}
    return acc;
}}""",
    """int {name}(n) {{
    int k = 1;
    while (k < n) {{
        setx(k, getx(k - 1) * {m1} + gety(k) / {m2});
        k = k + 1;
    }}
    return getx(n - 1);
}}""",
]

_WORDS = (
    "the quick brown fox jumps over lazy dog branch predict direction "
    "profile compiler schedule trace instruction parallel speculative "
    "dataset program static dynamic hardware pipeline cache memory breaks "
    "control conditional run previous feedback count taken history"
).split()


#: Module styles: which fragment templates a module draws from, plus
#: formatting quirks.  Different styles exercise different parts of the
#: compiler (comment skipping, literal scanning, nested expressions, symbol
#: interning), so modules are not interchangeable as predictors.
C_STYLES = {
    "scanner": {"fragments": [0, 4], "comments": 1, "exprs": 0},
    "tables": {"fragments": [1], "comments": 0, "exprs": 6},
    "recursive": {"fragments": [3, 2], "comments": 0, "exprs": 0},
    "commented": {"fragments": [0, 1, 2, 3, 4], "comments": 6, "exprs": 0},
    "numeric": {"fragments": [2, 4], "comments": 0, "exprs": 14},
    "mixed": {"fragments": [0, 1, 2, 3, 4], "comments": 2, "exprs": 3},
}


def _const_table(rng: random.Random, name: str, entries: int) -> str:
    """A function that is one long folded-constant expression chain."""
    lines = [f"int {name}() {{", "    int acc = 0;"]
    for _ in range(entries):
        terms = " + ".join(str(rng.randint(1, 9999)) for _ in range(6))
        lines.append(f"    acc = acc + {terms};")
    lines.append("    return acc;")
    lines.append("}")
    return "\n".join(lines)


def c_module(seed: int, functions: int = 24, style: str = "mixed") -> str:
    """A 'systems C'-flavoured module for the compiler workloads."""
    rng = random.Random(seed)
    spec = C_STYLES[style]
    parts: List[str] = [f"// module m{seed}: generated systems code ({style})"]
    parts.append(f"int table_size = {rng.randint(64, 512)};")
    prev = "depth0"
    for index in range(functions):
        for _ in range(spec["comments"]):
            words = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(4, 12)))
            parts.append(f"/* {words} */")
        template = _C_FRAGMENTS[rng.choice(spec["fragments"])]
        name = f"fn{seed}_{index}"
        parts.append(
            template.format(
                name=name,
                prev=prev,
                m1=rng.randint(2, 64),
                m2=rng.randint(32, 126),
                m3=rng.randint(32, 126),
                lim=rng.randint(1000, 100000),
                mod=rng.choice([997, 4093, 65521]),
            )
        )
        prev = name
    for index in range(spec["exprs"]):
        parts.append(_const_table(rng, f"tab{seed}_{index}", rng.randint(8, 20)))
    return "\n\n".join(parts) + "\n"


def fortran_module(seed: int, functions: int = 28) -> str:
    """A 'scientific FORTRAN'-flavoured module (loop-heavy, regular)."""
    rng = random.Random(seed)
    parts: List[str] = [f"// module f{seed}: generated scientific code"]
    for index in range(functions):
        template = rng.choice(_FORTRAN_FRAGMENTS)
        parts.append(
            template.format(
                name=f"sub{seed}_{index}",
                m1=rng.randint(2, 32),
                m2=rng.randint(2, 8),
            )
        )
    return "\n\n".join(parts) + "\n"


def english_text(seed: int, words: int) -> str:
    """English-like filler text (the compress 'reference data' analog)."""
    rng = random.Random(seed)
    output: List[str] = []
    line_len = 0
    for _ in range(words):
        word = rng.choice(_WORDS)
        output.append(word)
        line_len += len(word) + 1
        if line_len > 68:
            output.append("\n")
            line_len = 0
        else:
            output.append(" ")
    return "".join(output)


def adder_equations(bits: int) -> str:
    """Naive ripple-carry sum/carry equations for a ``bits``-bit adder
    (the eqntott add4/add5/add6 datasets)."""
    lines: List[str] = []
    carry = None
    for k in range(bits):
        a, b = f"a{k}", f"b{k}"
        if carry is None:
            lines.append(f"c{k} = {a} & {b} ;")
            lines.append(f"s{k} = ({a} | {b}) & !({a} & {b}) ;")
        else:
            lines.append(f"c{k} = ({a} & {b}) | ({carry} & ({a} | {b})) ;")
            # Sum bit = odd parity of (a, b, carry): exactly one, or all three.
            lines.append(
                f"s{k} = (({a} | {b} | {carry}) & "
                f"!(({a} & {b}) | ({a} & {carry}) | ({b} & {carry}))) "
                f"| ({a} & {b} & {carry}) ;"
            )
        carry = f"c{k}"
    return "\n".join(lines) + "\n"


def priority_equations(inputs: int) -> str:
    """Priority-encoder equations (the eqntott intpri dataset)."""
    lines: List[str] = []
    for k in range(inputs):
        higher = " & ".join(f"!i{j}" for j in range(k + 1, inputs))
        if higher:
            lines.append(f"p{k} = i{k} & {higher} ;")
        else:
            lines.append(f"p{k} = i{k} ;")
    any_terms = " | ".join(f"i{j}" for j in range(inputs))
    lines.append(f"anyv = {any_terms} ;")
    return "\n".join(lines) + "\n"


def pla_cubes(
    seed: int, ninputs: int, ncubes: int, dontcare_weight: int = 1
) -> bytes:
    """A random single-output PLA in the espresso workload's byte format.

    ``dontcare_weight`` sets the density: higher values produce sparser
    cubes (more ``-`` positions), which merge aggressively and steer the
    minimizer through different passes than dense PLAs do.
    """
    rng = random.Random(seed)
    population = [0, 1, 1, 0] + [2] * dontcare_weight
    data = bytearray([ninputs, ncubes & 255, ncubes >> 8])
    for _ in range(ncubes):
        for _ in range(ninputs):
            data.append(rng.choice(population))
        data.append(1)
    return bytes(data)


def netlist(mode: int, nnodes: int, devices: Sequence[tuple], steps: int) -> bytes:
    """Encode a spice netlist as the ASCII-integer stream spice.mf reads."""
    values = [mode, nnodes, len(devices)]
    for device in devices:
        values.extend(device)
    values.append(steps)
    return ("\n".join(str(value) for value in values) + "\n").encode()
