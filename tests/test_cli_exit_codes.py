"""Property: every CLI input either gives a result or exits 2, 3 or 4.

Generated argv and study-CSV bytes drive ``main()``, which must return 0, 2,
3 or 4, never raise, warn nothing, print one ``replikit: error:`` stderr line
on any nonzero exit that is not an argparse usage error, and print only
RFC 8259 JSON (no NaN or Infinity) on a json success. A command that names
an output it cannot write exits 2 before it parses or simulates anything, and
a command that fails leaves no output file behind.
Simulation sizes are bounded so that no example allocates much, and every
file an example names lives in its own temporary directory.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from replikit.cli import main, parse_study_csv
from replikit.simulation import run_simulation

EXIT_CODES = {0, 2, 3, 4}
# Generated argv names files by these names; each example maps them into its
# own temporary directory. ``no-such-dir`` is never made there, so an output
# path inside it cannot be written.
FILE_NAMES = ("studies.csv", "plot.svg", "batch.csv", "no-such-dir")


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def weighted(*pairs):
    """Draw from one of the strategies, each chosen in proportion to its weight."""
    return st.sampled_from([s for w, s in pairs for _ in range(w)]).flatmap(lambda s: s)


SPECIAL = ["", "x", "nan", "inf", "-inf", "1e400", "-0", "1e-200", "1e200", "0x10", " 3 "]
finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
powers = st.integers(-330, 310).map(lambda e: f"1e{e}")  # every magnitude, to under/overflow
magnitudes = st.one_of(st.floats(min_value=0.0, allow_infinity=False).map(repr), powers)
numbers = weighted(
    (4, finite),
    (2, powers),
    (1, st.floats().map(repr)),
    (1, st.integers(-(10**6), 10**6).map(str)),
    (1, st.sampled_from(SPECIAL)),
)
# Counts and sizes: small, or malformed; never a large allocation (sizes too
# large to allocate or to hold as a float are refused first). Required
# options are always given (leaving one out is an argparse exit 2).
sizes = weighted(
    (6, st.integers(2, 120).map(str)),
    (1, st.integers(-4, 1).map(str)),
    (1, st.sampled_from(["", "x", "2.5", "1e3", str(2**62), str(2**64), str(10**400)])),
)
levels = weighted((3, st.floats(0.01, 0.999).map(repr)), (1, numbers))
sds = weighted((3, magnitudes), (1, numbers))
seeds = st.one_of(
    st.integers(0, 99).map(str), st.sampled_from(["-1", "0", str(2**64 - 1), str(2**64), "x"])
)
table_formats = st.sampled_from(["text", "csv", "json"] * 2 + ["svg", "yaml"])


def required(name, values):
    """``["--name=value"]`` or ``["--name", "value"]``."""
    return st.tuples(values, st.booleans()).map(
        lambda t: [f"{name}={t[0]}"] if t[1] else [name, t[0]]
    )


def option(name, values):
    """``[]`` or an option as ``required`` gives it: one that may be left out."""
    return st.one_of(st.just([]), required(name, values))


def command(name, *options, seed=False, formats=True, level=True):
    """argv for ``name``: its own ``options``, then the shared ones it takes."""
    common = [option("--seed", seeds)] if seed else []  # only simulate draws
    if formats:  # forest and funnel write svg only
        common.append(option("--format", table_formats))
    if level:  # simulate has no --level
        common.append(option("--level", levels))
    parts = st.tuples(*options, *common, st.permutations(range(len(options) + len(common))))
    return parts.map(lambda p: [name] + [tok for k in p[-1] for tok in p[k]])


effect_argv = command(
    "effect",
    *(required(f"--{arg}{arm}", values)
      for arm in "12" for arg, values in (("n", sizes), ("mean", numbers), ("sd", sds))),
    st.sampled_from([[], ["--hedges"]]),
)
simulate_argv = command(
    "simulate",
    required("--runs", sizes),
    option("--n-per-arm", sizes),
    option("--effect", st.one_of(st.sampled_from(["none", "small", "bogus"]), numbers)),
    option("--dist", st.sampled_from(["normal", "mixed", "cauchy"])),
    option("--epsilon", weighted((3, st.floats(0.0, 1.0).map(repr)), (1, numbers))),
    option("--scale-mult", weighted((3, st.floats(1.01, 100.0).map(repr)), (1, numbers))),
    option("--workers", st.sampled_from(["-1", "0", "2", "10000", "x"])),
    option("--dump-batch", st.sampled_from(["batch.csv", "no-such-dir/batch.csv"])),
    seed=True,
    level=False,
)
pi_argv = command(
    "pi",
    required("--d", numbers),
    required("--n1", sizes),
    required("--n2", sizes),
    option("--se", sds),
    required("--rep-n1", sizes),
    required("--rep-n2", sizes),
    option("--check", numbers),
)
study_argv = st.one_of(
    command("meta", st.just(["studies.csv"])),
    st.sampled_from(["forest", "funnel"]).flatmap(
        lambda name: command(
            name,
            st.just(["studies.csv"]),
            option("--output", st.sampled_from(["plot.svg", "no-such-dir/x.svg"])),
            formats=False,
        )
    ),
)
free_argv = st.lists(
    st.sampled_from(
        ["effect", "simulate", "pi", "meta", "forest", "funnel", "--help", "-h", "--format",
         "json", "--bogus", "--", "-", "studies.csv", "--n1", "--d", "nan"]
    ),
    max_size=5,
)
argvs = st.one_of(effect_argv, simulate_argv, pi_argv, study_argv, free_argv)

HEADER = "study_id,label,n1,n2,mean1,mean2,sd1,sd2,d,se"
# Mostly well-formed rows of either input form, so that parsing often
# succeeds and the numbers reach pooling and plotting.
arm_sizes = st.one_of(st.integers(2, 500).map(str), sizes)
arm_fields = st.tuples(arm_sizes, arm_sizes, finite, finite, magnitudes, magnitudes).map(
    lambda r: [*r, "", ""]
)
direct_fields = st.tuples(
    st.one_of(st.just(""), sizes), st.one_of(st.just(""), sizes), finite, magnitudes
).map(lambda r: [r[0], r[1], "", "", "", "", r[2], r[3]])
any_fields = st.lists(st.one_of(st.just(""), numbers), min_size=8, max_size=8)
study_rows = st.tuples(
    st.sampled_from(["s1", "s2", "s3"]),
    st.text(max_size=4),
    weighted((2, arm_fields), (2, direct_fields), (1, any_fields)),
).map(lambda r: ",".join([r[0], r[1], *r[2]]))
study_text = st.tuples(
    st.sampled_from([HEADER] * 4 + [HEADER.replace(",se", ""), ""]),
    st.lists(study_rows, max_size=5),
    st.sampled_from(["\n", "\r\n"]),
).map(lambda t: t[2].join([t[0], *t[1]]) + t[2])
study_bytes = weighted((3, study_text.map(str.encode)), (1, st.binary(max_size=64)))


@settings(max_examples=300, deadline=None)
@given(argv=argvs, content=study_bytes)
# Sizes with no float value, and a batch too large for numpy to size.
@example(argv=["effect", "--n1", str(10**400), "--mean1", "1", "--sd1", "1",
               "--n2", "30", "--mean2", "0", "--sd2", "1"], content=b"")
@example(argv=["pi", "--d", "0.5", "--n1", "30", "--n2", "30", "--rep-n1", str(10**400),
               "--rep-n2", "30"], content=b"")
# Sizes that each have a float value but whose sum has none.
@example(argv=["effect", "--n1", str(int(1.7e308)), "--mean1", "1", "--sd1", "1",
               "--n2", str(int(1.7e308)), "--mean2", "0", "--sd2", "1"], content=b"")
@example(argv=["pi", "--d", "0.5", "--n1", str(int(1.7e308)), "--n2", str(int(1.7e308)),
               "--rep-n1", "30", "--rep-n2", "30"], content=b"")
@example(argv=["pi", "--d", "0.5", "--n1", "30", "--n2", "30", "--rep-n1", str(int(1.7e308)),
               "--rep-n2", str(int(1.7e308))], content=b"")
# Contamination that overflows the draws; Q's square that float ``**`` cannot hold.
@example(argv=["simulate", "--runs", "10", "--dist", "mixed", "--scale-mult", "1e308"],
         content=b"")
@example(argv=["meta", "studies.csv"],
         content=b"study_id,label,n1,n2,mean1,mean2,sd1,sd2,d,se\n"
                 b"s1,a,,,,,,,1e200,1\ns2,b,,,,,,,-1e200,1\n")
@example(argv=["simulate", "--runs", str(2**64)], content=b"")
@example(argv=["simulate", "--runs", str(2**62), "--n-per-arm", str(2**62)], content=b"")
# Outputs that cannot be written, before a study file that pools and a batch.
@example(argv=["forest", "studies.csv", "--output", "no-such-dir/x.svg"],
         content=b"study_id,label,n1,n2,mean1,mean2,sd1,sd2,d,se\ns1,a,,,,,,,0.5,0.3\n")
@example(argv=["simulate", "--runs", "10", "--dump-batch", "no-such-dir/batch.csv"], content=b"")
def test_main_returns_an_exit_code_and_never_raises(argv, content):
    check_main(argv, content)


def check_main(argv, content):
    """Run ``main(argv)`` with ``content`` as studies.csv, hold it to the
    contract above, and return how many batches it simulated."""
    out, err = io.StringIO(), io.StringIO()
    unwritable = any("no-such-dir" in tok for tok in argv)
    with tempfile.TemporaryDirectory() as workdir:
        files = {name: os.path.join(workdir, name) for name in FILE_NAMES}
        with open(files["studies.csv"], "wb") as handle:
            handle.write(content)
        for name, path in files.items():
            argv = [tok.replace(name, path) for tok in argv]
        # Spies that tell whether the command parsed a study file or ran a batch.
        with mock.patch("replikit.cli.parse_study_csv", wraps=parse_study_csv) as parse, \
                mock.patch("replikit.simulation.run_simulation", wraps=run_simulation) as run:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    rc = main(argv)
        left = sorted(os.listdir(workdir))
    assert rc in EXIT_CODES, (rc, err.getvalue())
    if unwritable:
        assert rc == 2 and not parse.called and not run.called, err.getvalue()
    if rc != 0:
        assert left == ["studies.csv"], (left, err.getvalue())
    assert [str(w.message) for w in caught] == []
    if rc == 0 and out.getvalue().startswith("{"):
        json.loads(out.getvalue(), parse_constant=reject_constant)
    if rc in (3, 4) or (rc == 2 and not err.getvalue().startswith("usage: ")):
        assert err.getvalue().startswith("replikit: error: "), err.getvalue()
        assert err.getvalue().count("\n") == 1, err.getvalue()
    return run.call_count


# Well-formed simulate argv only: even runs, small arms, a finite effect and,
# under --dist mixed, a valid contamination. The property above reaches the
# engine in only a few of its examples; this one reaches it in every example.
mixed = st.tuples(
    option("--epsilon", st.floats(0.0, 1.0).map(repr)),
    option("--scale-mult", st.floats(1.0, 1e308, exclude_min=True).map(repr)),
).map(lambda t: ["--dist", "mixed", *t[0], *t[1]])
engine_argv = st.tuples(
    required("--runs", st.integers(1, 100).map(lambda k: str(2 * k))),
    required("--n-per-arm", st.integers(2, 60).map(str)),
    # Joined to its option, so that a value such as -1e+300 is not read as an option.
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: [f"--effect={x!r}"]),
    st.one_of(st.just([]), st.just(["--dist", "normal"]), mixed),
    option("--seed", st.integers(0, 2**64 - 1).map(str)),
    option("--format", st.sampled_from(["text", "csv", "json"])),
    option("--dump-batch", st.just("batch.csv")),
).map(lambda parts: ["simulate", *(tok for part in parts for tok in part)])


@settings(max_examples=100, deadline=None)
@given(argv=engine_argv)
@example(argv=["simulate", "--runs", "2", "--n-per-arm", "2", "--effect=1.7976931348623157e+308",
               "--dist", "mixed", "--epsilon", "1.0", "--scale-mult", "1e308"])
def test_well_formed_simulate_runs_the_engine_and_keeps_the_contract(argv):
    assert check_main(argv, b"") == 1
