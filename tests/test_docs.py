"""Documentation gates: no broken relative links, docs/cli.md stays honest.

Two failure modes these tests exist to catch:

* a file rename or section move silently breaking cross-links between
  README / DESIGN / TESTING / PERFORMANCE / EXPERIMENTS / docs/;
* the CLI growing or changing a subcommand/flag without docs/cli.md
  following — the reference page must track ``build_parser()`` exactly.
"""

import re
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parents[1]

#: the curated documentation set (ISSUE/PAPER/SNIPPETS are task scaffolding)
DOC_FILES = sorted(
    [REPO / name for name in ("README.md", "DESIGN.md", "TESTING.md",
                              "PERFORMANCE.md", "EXPERIMENTS.md",
                              "ROADMAP.md", "CHANGES.md")]
    + list((REPO / "docs").glob("*.md")))

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def iter_relative_links():
    for doc in DOC_FILES:
        for target in _LINK_RE.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            yield doc, target


class TestLinks:
    def test_doc_set_exists(self):
        assert [d for d in DOC_FILES if d.name == "index.md"], \
            "docs/index.md missing"
        for doc in DOC_FILES:
            assert doc.exists(), f"{doc} listed but missing"

    @pytest.mark.parametrize(
        "doc,target",
        list(iter_relative_links()),
        ids=lambda v: v.name if isinstance(v, Path) else v)
    def test_relative_link_resolves(self, doc, target):
        path = target.split("#", 1)[0]
        resolved = (doc.parent / path).resolve()
        assert resolved.exists(), (
            f"{doc.relative_to(REPO)} links to {target!r} "
            f"but {resolved} does not exist")

    def test_there_are_links_to_check(self):
        """The parametrization above must never silently go empty."""
        assert len(list(iter_relative_links())) > 20


def _subcommands():
    parser = build_parser()
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            return dict(action.choices)
    raise AssertionError("no subparsers found on build_parser()")


class TestCliDocsHonesty:
    CLI_MD = (REPO / "docs" / "cli.md").read_text()

    def test_every_subcommand_has_a_section(self):
        for name in _subcommands():
            assert f"\n## {name}\n" in self.CLI_MD, (
                f"subcommand {name!r} exists in build_parser() but has no "
                f"'## {name}' section in docs/cli.md")

    def test_no_phantom_sections(self):
        documented = set(re.findall(r"^## ([a-z][a-z0-9-]*)$", self.CLI_MD,
                                    re.MULTILINE))
        phantom = documented - set(_subcommands())
        assert not phantom, (
            f"docs/cli.md documents subcommands that do not exist: "
            f"{sorted(phantom)}")

    def test_every_flag_is_documented(self):
        """Help-snapshot honesty: every long option of every subcommand
        must appear in docs/cli.md (anywhere — most live in the per-
        subcommand tables)."""
        missing = []
        for name, sub in _subcommands().items():
            for action in sub._actions:
                for opt in action.option_strings:
                    if opt.startswith("--") and opt not in self.CLI_MD:
                        missing.append(f"{name} {opt}")
        assert not missing, (
            f"flags in build_parser() but absent from docs/cli.md: "
            f"{missing}")

    def test_exit_code_contract_documented(self):
        for code, marker in [(1, "gate or job failed"),
                             (2, "usage or I/O error"),
                             (4, "run-health abort")]:
            assert marker in self.CLI_MD, (
                f"exit code {code} contract line ({marker!r}) missing "
                f"from docs/cli.md")

    def test_schema_table_matches_source(self):
        """Every schema identifier the code emits is documented."""
        from repro.farm import FARM_REPORT_SCHEMA, FARM_SPEC_SCHEMA, \
            PRODUCT_SCHEMA
        from repro.obs.provenance import MANIFEST_SCHEMA
        from repro.service import REQUESTS_SCHEMA, SERVICE_REPORT_SCHEMA
        from repro.verify.report import VERIFY_SCHEMA
        for schema in (VERIFY_SCHEMA, FARM_SPEC_SCHEMA,
                       FARM_REPORT_SCHEMA, PRODUCT_SCHEMA, MANIFEST_SCHEMA,
                       REQUESTS_SCHEMA, SERVICE_REPORT_SCHEMA):
            assert schema in self.CLI_MD, (
                f"schema {schema!r} emitted by the code but not in "
                f"docs/cli.md's schema table")
