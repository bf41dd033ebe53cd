"""MATPOWER case parsing and unit-commitment instance loading.

Quantities are converted to per-unit on the system MVA base at parse time:
loads, shunts, line ratings, generator limits, and cost coefficients
(cost/MWh becomes cost/p.u.-h). Angle limits are converted to radians.
"""

import json
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, ValidationError
from .tolerances import CMP_TOL

# MATPOWER bus types
PQ, PV, REF = 1, 2, 3

# Angle limits of 0 or >= 360 degrees mean "unconstrained" in MATPOWER;
# we substitute a loose +/- 90 degree window so downstream models always
# have finite angle-difference bounds.
_ANGLE_FALLBACK = math.pi / 2

# segments of the default piecewise-linear cost of a UC unit
COST_SEGMENTS = 3


@dataclass(frozen=True)
class Bus:
    id: int
    btype: int
    pd: float
    qd: float
    gs: float
    bs: float
    vmin: float
    vmax: float


@dataclass(frozen=True)
class Branch:
    f: int
    t: int
    r: float
    x: float
    b: float
    ratio: float
    shift: float  # rad
    rate_a: float  # p.u.
    ang_min: float  # rad
    ang_max: float  # rad


@dataclass(frozen=True)
class Gen:
    bus: int
    pmin: float
    pmax: float
    qmin: float
    qmax: float
    vg: float
    # polynomial cost c2*p^2 + c1*p + c0 with p in p.u.
    c2: float = 0.0
    c1: float = 0.0
    c0: float = 0.0


@dataclass(frozen=True)
class RawCase:
    name: str
    base_mva: float
    buses: tuple
    branches: tuple
    gens: tuple

    @property
    def n(self):
        return len(self.buses)

    @property
    def m(self):
        return len(self.branches)

    def bus_index(self):
        """Map external bus id -> position."""
        return {b.id: i for i, b in enumerate(self.buses)}

    @property
    def ref_bus(self):
        for b in self.buses:
            if b.btype == REF:
                return b.id
        raise ValidationError("case has no reference bus")


def _strip_comment(line):
    pos = line.find("%")
    return line if pos < 0 else line[:pos]


def _extract_table(text, name):
    """Return (rows, first_line_no) for `mpc.<name> = [ ... ];`."""
    pat = re.compile(r"mpc\." + name + r"\s*=\s*\[")
    match = pat.search(text)
    if match is None:
        return None, None
    start_line = text.count("\n", 0, match.start()) + 1
    body = text[match.end():]
    end = body.find("]")
    if end < 0:
        raise ParseError(f"unterminated table mpc.{name}", line=start_line)
    rows = []
    for off, raw in enumerate(body[:end].split("\n")):
        line = _strip_comment(raw).strip().rstrip(";").strip()
        if not line:
            continue
        try:
            rows.append([float(v) for v in line.split()])
        except ValueError:
            raise ParseError(
                f"malformed row in mpc.{name}: {raw.strip()!r}",
                line=start_line + off,
            )
    return rows, start_line


def _angle_bound(deg, default_sign):
    if deg == 0.0 or abs(deg) >= 360.0:
        return default_sign * _ANGLE_FALLBACK
    return math.radians(deg)


def parse_matpower(text, name="case"):
    """Parse MATPOWER case text into a per-unitized RawCase."""
    mm = re.search(r"mpc\.baseMVA\s*=\s*([0-9.eE+-]+)", text)
    if mm is None:
        raise ParseError("missing mpc.baseMVA")
    base = float(mm.group(1))
    if base <= 0:
        raise ValidationError(f"nonpositive baseMVA: {base}")

    bus_rows, bline = _extract_table(text, "bus")
    br_rows, _ = _extract_table(text, "branch")
    gen_rows, _ = _extract_table(text, "gen")
    cost_rows, _ = _extract_table(text, "gencost")
    if bus_rows is None:
        raise ParseError("missing mpc.bus table")
    if br_rows is None:
        raise ParseError("missing mpc.branch table")
    if gen_rows is None:
        raise ParseError("missing mpc.gen table")

    buses = []
    for row in bus_rows:
        if len(row) < 13:
            raise ParseError("bus row too short", line=bline)
        buses.append(Bus(
            id=int(row[0]), btype=int(row[1]),
            pd=row[2] / base, qd=row[3] / base,
            gs=row[4] / base, bs=row[5] / base,
            vmax=row[11], vmin=row[12],
        ))

    branches = []
    for row in br_rows:
        if len(row) < 13:
            raise ParseError("branch row too short")
        branches.append(Branch(
            f=int(row[0]), t=int(row[1]),
            r=row[2], x=row[3], b=row[4],
            rate_a=row[5] / base,
            ratio=row[8] if row[8] != 0.0 else 1.0,
            shift=math.radians(row[9]),
            ang_min=_angle_bound(row[11], -1.0),
            ang_max=_angle_bound(row[12], +1.0),
        ))

    gens = []
    for i, row in enumerate(gen_rows):
        if len(row) < 10:
            raise ParseError("gen row too short")
        c2 = c1 = c0 = 0.0
        if cost_rows is not None and i < len(cost_rows):
            crow = cost_rows[i]
            if int(crow[0]) == 2:
                # polynomial; take up to quadratic, rescale to p.u.
                coeffs = crow[4:]
                ncoef = int(crow[3])
                poly = coeffs[:ncoef]
                # poly is highest order first
                for k, c in enumerate(poly):
                    order = ncoef - 1 - k
                    if order == 2:
                        c2 = c * base * base
                    elif order == 1:
                        c1 = c * base
                    elif order == 0:
                        c0 = c
        gens.append(Gen(
            bus=int(row[0]),
            qmax=row[3] / base, qmin=row[4] / base,
            vg=row[5],
            pmax=row[8] / base, pmin=row[9] / base,
            c2=c2, c1=c1, c0=c0,
        ))

    case = RawCase(name=name, base_mva=base,
                   buses=tuple(buses), branches=tuple(branches),
                   gens=tuple(gens))
    validate_case(case)
    return case


def validate_case(case):
    refs = [b.id for b in case.buses if b.btype == REF]
    if len(refs) != 1:
        raise ValidationError(
            f"expected exactly one reference bus, found {len(refs)}")
    ids = {b.id for b in case.buses}
    if len(ids) != len(case.buses):
        raise ValidationError("duplicate bus ids")
    for br in case.branches:
        if br.f not in ids or br.t not in ids:
            raise ValidationError(f"branch {br.f}-{br.t} references unknown bus")
        if br.rate_a <= 0:
            raise ValidationError(f"branch {br.f}-{br.t} has nonpositive rateA")
    for g in case.gens:
        if g.bus not in ids:
            raise ValidationError(f"generator at unknown bus {g.bus}")
    for b in case.buses:
        if b.vmin > b.vmax:
            raise ValidationError(f"bus {b.id}: Vmin > Vmax")


def derate_thermal_limits(case, factor):
    """Scale every branch rateA by (1 - factor)."""
    if not 0.0 <= factor < 1.0:
        raise ValidationError(f"derate factor must be in [0, 1), got {factor}")
    branches = tuple(replace(br, rate_a=br.rate_a * (1.0 - factor))
                     for br in case.branches)
    return replace(case, branches=branches)


def write_matpower(case):
    """Serialize a RawCase back to MATPOWER case text (round-trip safe)."""
    base = case.base_mva
    out = [f"function mpc = {case.name}", "mpc.version = '2';",
           f"mpc.baseMVA = {base:.17g};", ""]
    out.append("mpc.bus = [")
    for b in case.buses:
        out.append(
            f"\t{b.id}\t{b.btype}\t{b.pd * base:.17g}\t{b.qd * base:.17g}"
            f"\t{b.gs * base:.17g}\t{b.bs * base:.17g}\t1\t1\t0\t0\t1"
            f"\t{b.vmax:.17g}\t{b.vmin:.17g};")
    out.append("];\n")
    out.append("mpc.gen = [")
    for g in case.gens:
        out.append(
            f"\t{g.bus}\t0\t0\t{g.qmax * base:.17g}\t{g.qmin * base:.17g}"
            f"\t{g.vg:.17g}\t{base:.17g}\t1\t{g.pmax * base:.17g}"
            f"\t{g.pmin * base:.17g};")
    out.append("];\n")
    out.append("mpc.branch = [")
    for br in case.branches:
        ratio = 0.0 if br.ratio == 1.0 and br.shift == 0.0 else br.ratio
        out.append(
            f"\t{br.f}\t{br.t}\t{br.r:.17g}\t{br.x:.17g}\t{br.b:.17g}"
            f"\t{br.rate_a * base:.17g}\t0\t0\t{ratio:.17g}"
            f"\t{math.degrees(br.shift):.17g}\t1"
            f"\t{math.degrees(br.ang_min):.17g}"
            f"\t{math.degrees(br.ang_max):.17g};")
    out.append("];\n")
    out.append("mpc.gencost = [")
    for g in case.gens:
        out.append(
            f"\t2\t0\t0\t3\t{g.c2 / base / base:.17g}\t{g.c1 / base:.17g}"
            f"\t{g.c0:.17g};")
    out.append("];")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# UC instance data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UCGen:
    """Temporal and cost parameters for one committable unit (all p.u.)."""
    name: str
    bus: int  # bus position in the case
    pmin: float
    pmax: float
    qmin: float
    qmax: float
    su: float
    sd: float
    ru: float
    rd: float
    tu: int
    td: int
    p_init: float
    init_status: int  # +h: on for h hours before t=1; -h: off for h hours
    # convex piecewise-linear production cost of p_delta = p - pmin:
    # list of (width p.u., slope cost/p.u.-h), slopes non-decreasing
    cost_segments: tuple
    no_load_cost: float  # cost/h while committed
    # startup cost tiers: (min_hours_down, cost), non-decreasing in both
    startup_tiers: tuple

    @property
    def init_on(self):
        return self.init_status > 0

    @property
    def p_delta_init(self):
        """Pre-horizon production above Pmin; 0 when initially off."""
        return max(self.p_init - self.pmin, 0.0) if self.init_on else 0.0


@dataclass(frozen=True)
class Condenser:
    """Always-on reactive source (Pmax = Pmin = 0 unit)."""
    bus: int  # bus position in the case
    qmin: float
    qmax: float


@dataclass(frozen=True)
class UCInstance:
    horizon: int
    gens: tuple  # UCGen
    condensers: tuple  # Condenser
    pd: "object"  # (n, T) ndarray, p.u.
    qd: "object"  # (n, T) ndarray, p.u.
    reserve: "object"  # (T,) ndarray, p.u.

    @property
    def ngen(self):
        return len(self.gens)

    def check_load_rows(self, n):
        """ValidationError unless the instance has one load row per bus of
        an ``n``-bus network."""
        if self.pd.shape[0] != n:
            raise ValidationError(f"instance has {self.pd.shape[0]} load "
                                  f"rows, network has {n} buses")


# every key load_uc_instance reads, at the top level and per unit
_DOC_KEYS = {"description", "horizon", "load_profile", "loads", "reserve",
             "generators"}
_UNIT_KEYS = {"pmin", "pmax", "qmin", "qmax", "su", "sd", "ru", "rd",
              "min_up", "min_down", "p_init", "init_status", "cost_segments",
              "no_load_cost", "startup_tiers"}


def _segments_from_poly(g):
    """``COST_SEGMENTS`` secant piecewise-linear segments of the polynomial
    cost over [pmin, pmax], in the p_delta = p - pmin coordinate."""
    span = g.pmax - g.pmin
    if span <= 0:
        return ((0.0, 0.0),)
    width = span / COST_SEGMENTS
    segs = []
    for k in range(COST_SEGMENTS):
        p0 = g.pmin + k * width
        p1 = p0 + width
        cost = lambda p: g.c2 * p * p + g.c1 * p
        slope = (cost(p1) - cost(p0)) / width
        segs.append((width, slope))
    return tuple(segs)


def _object(value, label):
    """``value`` if it is a JSON object, else ValidationError."""
    if not isinstance(value, dict):
        raise ValidationError(
            f"{label}: expected a JSON object, not {type(value).__name__}")
    return value


def _number(value, label):
    """``value`` if it is a finite JSON number, else ValidationError (a
    string, list, object, null, boolean, ``NaN`` or ``Infinity``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{label}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(
            f"{label}: expected a finite number, got {value!r}")
    return value


def _integer(value, label):
    """``value`` as an int if it is an integral JSON number (``4`` or
    ``4.0``), else ValidationError."""
    if not float(_number(value, label)).is_integer():
        raise ValidationError(f"{label}: expected an integer, got {value!r}")
    return int(value)


def _numbers(value, label, width=None):
    """``value`` if it is a JSON list of numbers, or with ``width`` a list
    of lists of ``width`` numbers, else ValidationError."""
    if not isinstance(value, list):
        raise ValidationError(f"{label}: expected a list, got {value!r}")
    for item in value:
        if width is None:
            _number(item, label)
            continue
        if not (isinstance(item, list) and len(item) == width):
            raise ValidationError(
                f"{label}: expected lists of {width} numbers, got {item!r}")
        for x in item:
            _number(x, label)
    return value


def _validate_segments(segs, label):
    prev = -math.inf
    for width, slope in segs:
        if width < 0:
            raise ValidationError(f"{label}: negative segment width")
        if slope < prev - CMP_TOL:
            raise ValidationError(
                f"{label}: cost segments not convex (decreasing slopes)")
        prev = slope


def load_uc_instance(text, case):
    """Load a UC instance document (JSON, quantities in MW/MVAr/hours)
    against a parsed case, rejecting keys it does not read and values
    that are not of their key's JSON type. See README."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"UC instance is not valid JSON: {e}", line=e.lineno)
    _object(doc, "UC instance")
    unknown = set(doc) - _DOC_KEYS
    if unknown:
        raise ValidationError(f"UC instance: unknown keys {sorted(unknown)}")

    base = case.base_mva
    T = _integer(doc.get("horizon", 24), "horizon")
    if T < 1:
        raise ValidationError("horizon must be >= 1")
    n = case.n
    idx = case.bus_index()

    # hourly active loads, p.u.
    pd = np.zeros((n, T))
    profile = doc.get("load_profile")
    if profile is not None:
        if len(_numbers(profile, "load_profile")) != T:
            raise ValidationError("load_profile length != horizon")
        for i, b in enumerate(case.buses):
            pd[i, :] = b.pd * np.asarray(profile, dtype=float)
    for bus_id, series in _object(doc.get("loads", {}), "loads").items():
        try:
            bid = int(bus_id)
        except ValueError:
            raise ValidationError(f"loads: bus id {bus_id!r} is not an "
                                  "integer") from None
        if bid not in idx:
            raise ValidationError(f"loads: unknown bus id {bid}")
        if len(_numbers(series, f"loads[{bid}]")) != T:
            raise ValidationError(f"loads[{bid}]: length != horizon")
        pd[idx[bid], :] = np.asarray(series, dtype=float) / base

    if not np.all(np.isfinite(pd)):
        raise ValidationError("non-finite load value")

    # constant power factor from the case's base loads
    qd = np.zeros((n, T))
    for i, b in enumerate(case.buses):
        ratio = (b.qd / b.pd) if b.pd != 0.0 else 0.0
        qd[i, :] = pd[i, :] * ratio

    reserve = doc.get("reserve", 0.0)
    if isinstance(reserve, list):
        if len(_numbers(reserve, "reserve")) != T:
            raise ValidationError("reserve length != horizon")
        reserve = np.asarray(reserve, dtype=float) / base
    else:
        reserve = np.full(T, float(_number(reserve, "reserve")) / base)

    gdocs = _object(doc.get("generators", {}), "generators")
    unknown = set(gdocs) - {str(i + 1) for i in range(len(case.gens))}
    if unknown:
        raise ValidationError(f"unknown unit ids {sorted(unknown)}")
    gens = []
    condensers = []
    for gi, g in enumerate(case.gens):
        gname = str(gi + 1)
        gd = _object(gdocs.get(gname, {}), f"unit {gname}")
        unknown = set(gd) - _UNIT_KEYS
        if unknown:
            raise ValidationError(
                f"unit {gname}: unknown keys {sorted(unknown)}")

        def num(key, default, kind=_number):
            # only the document's values are checked, not the case row's
            if key not in gd:
                return default
            return kind(gd[key], f"unit {gname}: {key}")

        pmin = num("pmin", g.pmin * base) / base
        pmax = num("pmax", g.pmax * base) / base
        qmin = num("qmin", g.qmin * base) / base
        qmax = num("qmax", g.qmax * base) / base
        if pmax == 0.0 and pmin == 0.0:
            condensers.append(Condenser(bus=idx[g.bus], qmin=qmin, qmax=qmax))
            continue
        su = num("su", pmax * base) / base
        sd = num("sd", pmax * base) / base
        ru = num("ru", pmax * base) / base
        rd = num("rd", pmax * base) / base
        tu = num("min_up", 1, _integer)
        td = num("min_down", 1, _integer)
        p_init = num("p_init", 0.0) / base
        init_status = num("init_status", -max(td, 1), _integer)
        if tu < 1 or td < 1:
            raise ValidationError(f"unit {gname}: min up/down must be >= 1")
        if ru < 0 or rd < 0:
            raise ValidationError(f"unit {gname}: negative ramp limit")
        if not (pmin <= su <= pmax and pmin <= sd <= pmax):
            raise ValidationError(
                f"unit {gname}: SU/SD must lie within [Pmin, Pmax]")
        if "cost_segments" in gd:
            segs = tuple((w / base, s * base) for w, s in _numbers(
                gd["cost_segments"], f"unit {gname}: cost_segments", 2))
        else:
            segs = _segments_from_poly(g)
        _validate_segments(segs, f"unit {gname}")
        label = f"unit {gname}: startup_tiers"
        tiers = tuple((_integer(h, label), float(c)) for h, c in
                      _numbers(gd.get("startup_tiers", [[0, 0.0]]), label, 2))
        prev_h, prev_c = -1, -math.inf
        for h, c in tiers:
            if h <= prev_h or c < prev_c:
                raise ValidationError(
                    f"unit {gname}: startup tiers must increase in downtime "
                    "and be non-decreasing in cost")
            prev_h, prev_c = h, c
        gens.append(UCGen(
            name=gname, bus=idx[g.bus], pmin=pmin, pmax=pmax,
            qmin=qmin, qmax=qmax, su=su, sd=sd, ru=ru, rd=rd, tu=tu, td=td,
            p_init=p_init, init_status=init_status,
            cost_segments=segs,
            no_load_cost=num("no_load_cost", g.c0),
            startup_tiers=tiers,
        ))

    return UCInstance(horizon=T, gens=tuple(gens), condensers=tuple(condensers),
                      pd=pd, qd=qd, reserve=reserve)
