"""Line-oriented run configuration.

A config file has three sections::

    [system]
    n 3
    m 3
    drift 1 0 1 0 -1.0        # component, exponent vector, coefficient
    sigma 1 1 0 0 0 1.0       # row, column, exponent vector, coefficient

    [run]
    epsilon 1e-1 1e-2
    T 1.0
    dt 1e-3
    paths 200
    seed 0
    checkpoints 0.5 1.0

    [output]
    directory out
    plot false

Tokens are whitespace-separated; ``#`` starts a comment.  Every drift
line contributes one monomial to one component (1-based); every sigma
line contributes one monomial to one entry of the n-by-m diffusion
matrix.  ``mu true`` in [system] declares a trailing bifurcation
parameter: drift exponent vectors then have n+1 entries (the last one
for the parameter) while sigma exponents stay at n.

The parser judges the grammar: sections, keys, token types and counts,
``n`` and ``m``, term indices and booleans.  All such errors
are collected and reported together with their line numbers.  It does
not judge the range of a run value (T, dt, paths, epsilon, ...): the
command line may still override it, so the CLI judges the resolved run
once, after its flags, and reports those errors without line numbers.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

from .polyfield import PolyMap

# One [run] key: the Config field it sets, the type of each of its values,
# whether it takes several values (else exactly one), and its default.
RunKey = collections.namedtuple("RunKey", "field type several default")

# Every [run] key, in the order the parser reports their errors; each key
# is also the name of the command-line flag that overrides it.
RUN_KEYS = {
    "epsilon": RunKey("epsilons", float, True, (1e-2,)),
    "T": RunKey("T", float, False, 1.0),
    "dt": RunKey("dt", float, False, 1e-3),
    "paths": RunKey("paths", int, False, 100),
    "seed": RunKey("seed", int, False, 0),
    "rho0": RunKey("rho0", float, False, 1.0),
    "delta": RunKey("delta", float, False, 0.05),
    "N": RunKey("nmax", float, False, 10.0),
    "Delta": RunKey("big_delta", float, False, 2.0),
    "beta": RunKey("beta", float, False, 0.4),
    "checkpoints": RunKey("checkpoints", float, True, None),
    "workers": RunKey("workers", int, False, None),
}

_SECTIONS = ("system", "run", "output")
_SYSTEM_KEYS = {"n", "m", "mu", "drift", "sigma"}
_OUTPUT_KEYS = {"directory", "plot"}
_BOOL_TOKENS = {"true": True, "yes": True, "1": True,
                "false": False, "no": False, "0": False}


class ConfigError(Exception):
    """One or more configuration problems; ``errors`` lists them all."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True)
class Config:
    """Parsed configuration, its run values not yet range-checked.

    ``checkpoints`` is None when the file has no checkpoints line; the
    CLI then compares at the T it resolves after its flags.
    """

    n: int
    m: int
    includes_mu: bool
    drift: PolyMap
    sigma: PolyMap
    epsilons: tuple
    T: float
    dt: float
    paths: int
    seed: int
    rho0: float
    delta: float
    nmax: float
    big_delta: float
    beta: float
    checkpoints: tuple | None
    workers: int
    out_dir: str
    plot: bool
    text: str


def _to_float(token, lineno, key, errors):
    try:
        return float(token)
    except ValueError:
        errors.append(f"line {lineno}: {key}: '{token}' is not a number")
        return None


def _to_int(token, lineno, key, errors):
    try:
        return int(token)
    except ValueError:
        errors.append(f"line {lineno}: {key}: '{token}' is not an integer")
        return None


def parse_config(text):
    """Parse config text, raising ConfigError with every problem found."""
    errors = []
    section = None
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                errors.append(f"line {lineno}: unknown section [{name}]")
                section = None
            else:
                section = name
            continue
        tokens = line.split()
        if section is None:
            errors.append(f"line {lineno}: '{tokens[0]}' appears outside "
                          "any section")
            continue
        records.append((section, tokens[0], tokens[1:], lineno))

    allowed = {"system": _SYSTEM_KEYS, "run": RUN_KEYS,
               "output": _OUTPUT_KEYS}
    scalars = {}
    drift_lines = []
    sigma_lines = []
    for section, key, args, lineno in records:
        if key not in allowed[section]:
            errors.append(f"line {lineno}: unknown key '{key}' in "
                          f"[{section}]")
            continue
        if key == "drift":
            drift_lines.append((args, lineno))
        elif key == "sigma":
            sigma_lines.append((args, lineno))
        elif key in scalars:
            errors.append(f"line {lineno}: duplicate key '{key}' "
                          f"(first on line {scalars[key][1]})")
        else:
            scalars[key] = (args, lineno)

    def scalar(key, convert, default):
        if key not in scalars:
            return default
        args, lineno = scalars[key]
        if len(args) != 1:
            errors.append(f"line {lineno}: {key} takes exactly one value")
            return default
        value = convert(args[0], lineno, key, errors)
        return default if value is None else value

    def multi(key, convert, default):
        if key not in scalars:
            return default
        args, lineno = scalars[key]
        if not args:
            errors.append(f"line {lineno}: {key} needs at least one value")
            return default
        values = [convert(a, lineno, key, errors) for a in args]
        if any(v is None for v in values):
            return default
        return tuple(values)

    n = scalar("n", _to_int, None)
    if n is None:
        errors.append("[system] must set n")
        n = 2
    elif n < 2:
        errors.append(f"line {scalars['n'][1]}: n must be at least 2")
        n = 2
    m = scalar("m", _to_int, n)
    if m < 1:
        errors.append(f"line {scalars['m'][1]}: m must be at least 1")
        m = 1
    if "mu" in scalars:
        args, lineno = scalars.pop("mu")
        token = args[0].lower() if len(args) == 1 else ""
        includes_mu = _BOOL_TOKENS.get(token)
        if includes_mu is None:
            errors.append(f"line {lineno}: mu must be true or false")
            includes_mu = False
    else:
        includes_mu = False

    def poly_terms(lines, key, n_rows, n_exps, indexed_cols):
        terms = []
        for args, lineno in lines:
            want = (2 if indexed_cols else 1) + n_exps + 1
            if len(args) != want:
                errors.append(
                    f"line {lineno}: {key} needs "
                    f"{'row, column' if indexed_cols else 'component'}, "
                    f"{n_exps} exponents, and a coefficient")
                continue
            head = args[:2] if indexed_cols else args[:1]
            idx = [_to_int(t, lineno, key, errors) for t in head]
            exps = [_to_int(t, lineno, key, errors) for t in
                    args[len(head):-1]]
            coef = _to_float(args[-1], lineno, key, errors)
            if any(v is None for v in idx + exps) or coef is None:
                continue
            if not 1 <= idx[0] <= n_rows:
                errors.append(f"line {lineno}: {key} row {idx[0]} out of "
                              f"range 1..{n_rows}")
                continue
            if indexed_cols and not 1 <= idx[1] <= m:
                errors.append(f"line {lineno}: {key} column {idx[1]} out "
                              f"of range 1..{m}")
                continue
            if any(e < 0 for e in exps):
                errors.append(f"line {lineno}: {key} exponents must be "
                              "nonnegative")
                continue
            comp = (idx[0] - 1) * m + (idx[1] - 1) if indexed_cols \
                else idx[0] - 1
            terms.append((comp, tuple(exps), coef))
        return terms

    n_drift_vars = n + 1 if includes_mu else n
    drift_terms = poly_terms(drift_lines, "drift", n, n_drift_vars,
                             indexed_cols=False)
    sigma_terms = poly_terms(sigma_lines, "sigma", n, n, indexed_cols=True)

    convert = {float: _to_float, int: _to_int}
    run = {spec.field: (multi if spec.several else scalar)(
        key, convert[spec.type], spec.default)
        for key, spec in RUN_KEYS.items()}

    def out_scalar(key, default):
        if key not in scalars:
            return default
        args, lineno = scalars[key]
        if len(args) != 1:
            errors.append(f"line {lineno}: {key} takes exactly one value")
            return default
        return args[0]

    out_dir = out_scalar("directory", "out")
    plot_token = out_scalar("plot", "false")
    plot = _BOOL_TOKENS.get(plot_token.lower())
    if plot is None:
        errors.append(f"line {scalars['plot'][1]}: plot must be true or "
                      f"false, got '{plot_token}'")
        plot = False

    if errors:
        raise ConfigError(errors)
    return Config(
        n=n, m=m, includes_mu=includes_mu,
        drift=PolyMap(n_drift_vars, n, drift_terms),
        sigma=PolyMap(n, n * m, sigma_terms), **run, out_dir=out_dir,
        plot=plot, text=text)


def load_config(path):
    """Read and parse a config file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
