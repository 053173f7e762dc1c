"""Fixture tests for repro.devtools.lint: every rule family must
fire on a seeded violation and stay quiet on the compliant twin, the
suppression directives must work (and police themselves), the
baseline must round-trip, and — the gate itself — the repo's own
tree must lint clean."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import (
    RULES,
    LintConfig,
    baseline_entries,
    lint_paths,
    lint_source,
    load_baseline,
    render_json,
    render_text,
    save_baseline,
)
from repro.devtools.lint.core import apply_baseline

REPO_ROOT = Path(__file__).resolve().parent.parent


def rules_of(findings):
    return [f.rule for f in findings]


def check(source, rel="src/repro/x.py", config=None):
    return lint_source(textwrap.dedent(source), rel, config)


# ---------------------------------------------------------------------
# D-rules: determinism
# ---------------------------------------------------------------------

class TestD101UnseededRng:
    def test_unseeded_random_constructor_flagged(self):
        findings = check("""
            import random
            rng = random.Random()
        """)
        assert rules_of(findings) == ["D101"]

    def test_seeded_random_constructor_clean(self):
        findings = check("""
            import random
            rng = random.Random(42)
        """)
        assert findings == []

    def test_module_level_draw_flagged(self):
        findings = check("""
            import random
            x = random.random()
            y = random.shuffle([1, 2])
        """)
        assert rules_of(findings) == ["D101", "D101"]

    def test_aliased_import_still_caught(self):
        findings = check("""
            import random as rnd
            x = rnd.choice([1, 2])
        """)
        assert rules_of(findings) == ["D101"]


class TestD102WallClock:
    def test_time_time_flagged(self):
        findings = check("""
            import time
            t = time.time()
        """)
        assert rules_of(findings) == ["D102"]

    def test_datetime_now_flagged(self):
        findings = check("""
            from datetime import datetime
            t = datetime.now()
        """)
        assert rules_of(findings) == ["D102"]

    def test_plain_datetime_module_chain_flagged(self):
        findings = check("""
            import datetime
            t = datetime.datetime.now()
        """)
        assert rules_of(findings) == ["D102"]

    def test_monotonic_clean(self):
        findings = check("""
            import time
            t = time.monotonic()
        """)
        assert findings == []

    def test_allowlisted_path_clean(self):
        findings = check("""
            import time
            t = time.time()
        """, rel="scripts/bench.py")
        assert findings == []


class TestD103SetIteration:
    def test_set_into_ordered_accumulation_flagged(self):
        findings = check("""
            def f(items):
                seen = set(items)
                out = []
                for x in seen:
                    out.append(x)
                return out
        """)
        assert rules_of(findings) == ["D103"]

    def test_sorted_set_clean(self):
        findings = check("""
            def f(items):
                seen = set(items)
                out = []
                for x in sorted(seen):
                    out.append(x)
                return out
        """)
        assert findings == []

    def test_set_literal_comprehension_flagged(self):
        findings = check("""
            def f(fields):
                shared = {a for a in fields}
                return [str(name) for name in shared]
        """)
        assert rules_of(findings) == ["D103"]

    def test_sorted_genexp_over_set_clean(self):
        findings = check("""
            def f(rules, known):
                bad = set(rules)
                return sorted(r for r in bad if r not in known)
        """)
        assert findings == []


class TestD104UnsortedListing:
    def test_bare_listdir_flagged(self):
        findings = check("""
            import os
            def f(d):
                for name in os.listdir(d):
                    print(name)
        """)
        assert rules_of(findings) == ["D104"]

    def test_sorted_listdir_clean(self):
        findings = check("""
            import os
            def f(d):
                for name in sorted(os.listdir(d)):
                    print(name)
        """)
        assert findings == []

    def test_bare_glob_and_iterdir_flagged(self):
        findings = check("""
            import glob
            def f(d, p):
                files = glob.glob("*.json")
                more = list(p.iterdir())
                return files, more
        """)
        assert rules_of(findings) == ["D104", "D104"]

    def test_sorted_rglob_clean(self):
        findings = check("""
            def f(p):
                return sorted(p.rglob("*.py"))
        """)
        assert findings == []


class TestD105BuiltinHash:
    def test_hash_flagged_in_src(self):
        findings = check("""
            def key(s):
                return hash(s) % 16
        """)
        assert rules_of(findings) == ["D105"]

    def test_hash_allowed_in_scripts(self):
        findings = check("""
            def key(s):
                return hash(s) % 16
        """, rel="scripts/tool.py")
        assert findings == []


# ---------------------------------------------------------------------
# R-rules: lock coverage
# ---------------------------------------------------------------------

THREADED_OK = """
    import threading

    # repro-lint: thread-shared lock=_lock guards=ledger
    class Server:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0
            self.ledger = []

        def bump(self):
            with self._lock:
                self._count += 1
                self.ledger.append(self._count)

        def snapshot(self):
            with self._lock:
                return self._sync()

        def _sync(self):
            return list(self.ledger)
"""


#: The shape of the on-disk precompute store (ISSUE 10): file I/O on
#: locals stays outside the lock, the shared counter dict is only
#: touched through a lock-holding helper.
PRECOMPUTE_STORE_OK = """
    import json
    import threading

    # repro-lint: thread-shared lock=_lock guards=_stats
    class Store:
        def __init__(self, root):
            self.root = root
            self._lock = threading.Lock()
            self._stats = {"loads": 0, "misses": 0}

        def get(self, digest):
            try:
                with open(digest) as fh:
                    payload = json.load(fh)
            except OSError:
                payload = None
            with self._lock:
                self._count("loads" if payload else "misses")
            return payload

        def _count(self, field):
            self._stats[field] += 1

        def stats(self):
            with self._lock:
                return dict(self._stats)
"""


class TestRRules:
    def test_compliant_class_clean(self):
        assert check(THREADED_OK) == []

    def test_precompute_store_shape_clean(self):
        """The store's idiom — unlocked file I/O on locals, counters
        only via a lock-held private helper — is R-clean."""
        assert check(PRECOMPUTE_STORE_OK) == []

    def test_precompute_store_unlocked_counter_r203(self):
        """Dropping the lock around the counter helper is the store's
        characteristic race; the fixed-point helper analysis flags
        the unlocked call."""
        findings = check(
            PRECOMPUTE_STORE_OK.replace(
                "            with self._lock:\n"
                "                self._count(\"loads\" if payload"
                " else \"misses\")",
                "            self._count(\"loads\" if payload"
                " else \"misses\")",
            )
        )
        assert "R203" in rules_of(findings)

    def test_precompute_store_unlocked_stats_read_r202(self):
        """A public snapshot of the guarded counter dict taken
        without the lock is flagged."""
        findings = check(
            PRECOMPUTE_STORE_OK.replace(
                "        def stats(self):\n"
                "            with self._lock:\n"
                "                return dict(self._stats)",
                "        def stats(self):\n"
                "            return dict(self._stats)",
            )
        )
        assert "R202" in rules_of(findings)

    def test_unlocked_write_r201(self):
        findings = check("""
            # repro-lint: thread-shared lock=_lock
            class Server:
                def __init__(self):
                    self._count = 0

                def bump(self):
                    self._count += 1
        """)
        assert "R201" in rules_of(findings)

    def test_unlocked_guarded_read_r202(self):
        findings = check("""
            # repro-lint: thread-shared lock=_lock guards=ledger
            class Server:
                def __init__(self):
                    self.ledger = []

                def snapshot(self):
                    return list(self.ledger)
        """)
        assert rules_of(findings) == ["R202"]

    def test_unlocked_call_to_needy_helper_r203(self):
        findings = check("""
            # repro-lint: thread-shared lock=_lock
            class Server:
                def __init__(self):
                    self._items = []

                def flush(self):
                    self._drain()

                def _drain(self):
                    self._items.clear()
        """)
        assert "R203" in rules_of(findings)

    def test_needs_lock_propagates_through_private_calls(self):
        findings = check("""
            # repro-lint: thread-shared lock=_lock
            class Server:
                def __init__(self):
                    self._items = []

                def flush(self):
                    self._outer()

                def _outer(self):
                    self._inner()

                def _inner(self):
                    self._items.clear()
        """)
        assert "R203" in rules_of(findings)

    def test_lock_none_flags_every_write(self):
        findings = check("""
            # repro-lint: thread-shared lock=none
            class Flag:
                def __init__(self):
                    self._halt = False

                def stop(self):
                    self._halt = True
        """)
        assert rules_of(findings) == ["R201"]

    def test_single_writer_marker_not_checked(self):
        findings = check("""
            # repro-lint: single-writer owner=Coordinator._lock
            class Ledger:
                def __init__(self):
                    self._state = []

                def settle(self, i):
                    self._state[i] = "done"
        """)
        assert findings == []

    def test_unmarked_class_not_checked(self):
        findings = check("""
            class Plain:
                def __init__(self):
                    self._x = 0

                def bump(self):
                    self._x += 1
        """)
        assert findings == []

    def test_trailing_marker_on_class_line(self):
        findings = check("""
            class Server:  # repro-lint: thread-shared lock=_lock
                def __init__(self):
                    self._n = 0

                def bump(self):
                    self._n += 1
        """)
        assert "R201" in rules_of(findings)

    def test_nested_function_inherits_lock_domination(self):
        findings = check("""
            # repro-lint: thread-shared lock=_lock
            class Server:
                def __init__(self):
                    self._items = []

                def flush(self):
                    with self._lock:
                        def cb():
                            self._items.clear()
                        cb()
        """)
        assert findings == []


# ---------------------------------------------------------------------
# P-rules: purity / private state
# ---------------------------------------------------------------------

class TestPRules:
    def test_foreign_setattr_p301(self):
        findings = check("""
            def poke(plan):
                object.__setattr__(plan, "bw_caps", ())
        """)
        assert rules_of(findings) == ["P301"]

    def test_aliased_setattr_p301(self):
        findings = check("""
            def poke(plan):
                st = object.__setattr__
                st(plan, "bw_caps", ())
        """)
        assert rules_of(findings) == ["P301"]

    def test_self_setattr_clean(self):
        findings = check("""
            class Spec:
                def __post_init__(self):
                    object.__setattr__(self, "seeds", tuple(self.seeds))
        """)
        assert findings == []

    def test_allowlisted_module_clean(self):
        # No module is allowlisted: the plan module lints its own
        # __post_init__ normalisation clean, and a foreign setattr
        # there is P301 like anywhere else.
        findings = check("""
            class AllocationPlan:
                def __post_init__(self):
                    object.__setattr__(self, "tiles", tuple(self.tiles))
        """, rel="src/repro/sim/plan.py")
        assert findings == []
        findings = check("""
            def build(plan):
                object.__setattr__(plan, "tiles", ())
        """, rel="src/repro/sim/plan.py")
        assert rules_of(findings) == ["P301"]

    def test_foreign_private_read_p303(self):
        findings = check("""
            class Policy:
                def round(self, sim):
                    self._seen = sim._boundaries
        """, rel="src/repro/core/policy.py")
        assert rules_of(findings) == ["P303"]

    def test_private_defined_in_same_module_clean(self):
        # A module's own helper object: ``frame._start`` is assigned
        # on ``self`` in this module, so reading it through another
        # receiver stays inside the module's encapsulation.
        findings = check("""
            class Frame:
                _delta: dict

                def __init__(self):
                    self._start = {}

            def rebase(frame, other):
                frame._start.clear()
                other._delta.clear()
        """, rel="src/repro/core/latency.py")
        assert findings == []

    def test_foreign_private_read_in_sim_p303(self):
        # The reference loop drives the engine through public methods.
        findings = check("""
            def peek(sim):
                return sim._pending
        """, rel="src/repro/sim/reference.py")
        assert rules_of(findings) == ["P303"]

    def test_foreign_private_outside_scope_clean(self):
        findings = check("""
            def peek(sim):
                return sim._boundaries
        """, rel="src/repro/experiments/runner.py")
        assert findings == []


# ---------------------------------------------------------------------
# Directives: suppression and its self-policing
# ---------------------------------------------------------------------

class TestDirectives:
    def test_inline_suppression_with_reason(self):
        findings = check("""
            import time
            t = time.time()  # repro-lint: allow[D102] -- bench timing only
        """)
        assert findings == []

    def test_standalone_suppression_covers_next_line(self):
        findings = check("""
            import time
            # repro-lint: allow[D102] -- bench timing only
            t = time.time()
        """)
        assert findings == []

    def test_suppression_without_reason_is_l001(self):
        findings = check("""
            import time
            t = time.time()  # repro-lint: allow[D102]
        """)
        # The reasonless directive is rejected AND does not suppress.
        assert sorted(rules_of(findings)) == ["D102", "L001"]

    def test_unknown_rule_is_l002(self):
        findings = check("""
            x = 1  # repro-lint: allow[D999] -- no such rule
        """)
        assert rules_of(findings) == ["L002"]

    def test_l_rules_cannot_be_suppressed(self):
        findings = check("""
            # repro-lint: allow[L001] -- trying to silence the police
            x = 1  # repro-lint: allow[D102]
        """)
        assert "L001" in rules_of(findings)

    def test_wrong_rule_does_not_suppress(self):
        findings = check("""
            import time
            t = time.time()  # repro-lint: allow[D101] -- wrong rule
        """)
        assert "D102" in rules_of(findings)

    def test_directive_examples_in_docstrings_ignored(self):
        findings = check('''
            def f():
                """Use '# repro-lint: allow[D102]' to suppress."""
                return 1
        ''')
        assert findings == []

    def test_syntax_error_is_l003(self):
        findings = check("""
            def f(:
        """)
        assert rules_of(findings) == ["L003"]

    def test_malformed_marker_is_l002(self):
        findings = check("""
            # repro-lint: thread-shared bogus
            class C:
                pass
        """)
        assert rules_of(findings) == ["L002"]


# ---------------------------------------------------------------------
# Baseline round-trip
# ---------------------------------------------------------------------

BASELINE_SRC = """
import time
t = time.time()
"""


class TestBaseline:
    def test_round_trip_and_apply(self, tmp_path):
        findings = lint_source(BASELINE_SRC, "src/repro/x.py")
        assert rules_of(findings) == ["D102"]
        entries = baseline_entries(findings, reason="startup banner")
        path = tmp_path / "baseline.json"
        save_baseline(path, entries)
        loaded = load_baseline(path)
        assert loaded == entries
        remaining, matched, stale = apply_baseline(findings, loaded)
        assert remaining == [] and matched == 1 and stale == []

    def test_baseline_survives_line_drift(self, tmp_path):
        findings = lint_source(BASELINE_SRC, "src/repro/x.py")
        entries = baseline_entries(findings, reason="startup banner")
        moved = lint_source(
            "\n\n\n" + BASELINE_SRC, "src/repro/x.py"
        )
        remaining, matched, _ = apply_baseline(moved, entries)
        assert remaining == [] and matched == 1

    def test_stale_entries_reported_not_fatal(self, tmp_path):
        entries = baseline_entries(
            lint_source(BASELINE_SRC, "src/repro/x.py"),
            reason="gone now",
        )
        remaining, matched, stale = apply_baseline([], entries)
        assert matched == 0 and stale == entries

    def test_reasonless_entry_rejected_at_load(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(path, [{
            "rule": "D102", "path": "src/repro/x.py",
            "snippet": "t = time.time()", "reason": "  ",
        }])
        with pytest.raises(ValueError, match="no reason"):
            load_baseline(path)

    def test_unknown_rule_rejected_at_load(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(path, [{
            "rule": "D999", "path": "x.py",
            "snippet": "x", "reason": "y",
        }])
        with pytest.raises(ValueError, match="unknown rule"):
            load_baseline(path)

    def test_non_baseline_json_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)


# ---------------------------------------------------------------------
# Driver, rendering, and the gate itself
# ---------------------------------------------------------------------

class TestDriver:
    def test_select_filters_rules(self):
        config = LintConfig(select=frozenset({"D101"}))
        findings = check("""
            import random
            import time
            rng = random.Random()
            t = time.time()
        """, config=config)
        assert rules_of(findings) == ["D101"]

    def test_render_text_and_json_agree(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("import time\nt = time.time()\n")
        report = lint_paths([f], tmp_path)
        assert not report.clean
        assert "D102" in render_text(report)
        payload = json.loads(render_json(report))
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "D102"

    def test_rule_catalogue_matches_emitters(self):
        # Every documented rule id is well-formed; families partition.
        assert set(RULES) == {
            "L001", "L002", "L003",
            "D101", "D102", "D103", "D104", "D105",
            "R201", "R202", "R203",
            "P301", "P303",
        }

    def test_repo_tree_lints_clean_against_baseline(self):
        baseline = load_baseline(REPO_ROOT / "lint_baseline.json")
        report = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "scripts"],
            REPO_ROOT,
            baseline=baseline,
        )
        assert report.clean, render_text(report)
        assert report.stale_baseline == []

    def test_stale_only_for_linted_paths(self):
        # A subset run cannot see the files other entries name, so it
        # must not call them stale; a full run still flags a dead one.
        baseline = load_baseline(REPO_ROOT / "lint_baseline.json")
        subset = lint_paths(
            [REPO_ROOT / "src" / "repro" / "sim"],
            REPO_ROOT,
            baseline=baseline,
        )
        assert subset.stale_baseline == [], render_text(subset)
        dead = dict(baseline[0], snippet="self._httpd.removed()")
        full = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "scripts"],
            REPO_ROOT,
            baseline=baseline + [dead],
        )
        assert full.stale_baseline == [dead]
        assert full.baselined == len(baseline)
