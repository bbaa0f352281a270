#!/usr/bin/env python3
"""Numeric flag parsing tests for the lshe command-line tool.

Every numeric flag is parsed strictly: text that is not a number, a
negative count or duration, or a value the target field cannot hold
makes lshe exit 2 with "invalid value for --<flag>" before any command
runs, instead of being silently wrapped, truncated or read as 0. Valid
values still reach the command: a tiny index is built and queried with
explicit numeric flags.

Run via ctest (registered as CliFlagsTest.Python), or directly:
    python3 tests/cli_flags_test.py path/to/lshe
"""

import os
import re
import subprocess
import sys
import tempfile
import unittest

LSHE = None


def run_lshe(*args, cwd=None):
    return subprocess.run(
        [LSHE, *args], capture_output=True, text=True, check=False,
        cwd=cwd, timeout=60)


class CliFlagsTest(unittest.TestCase):
    def assert_rejected(self, command, flag, value):
        # The positional path does not exist: a flag that slipped through
        # would fail later with exit 1, not with the parse error.
        result = run_lshe(command, "/nonexistent/lshe-flags", flag, value)
        self.assertEqual(result.returncode, 2,
                         f"{flag} {value!r}: {result.stderr}")
        self.assertIn(f"invalid value for {flag}", result.stderr)

    def test_port_out_of_range(self):
        self.assert_rejected("serve", "--port", "70000")
        self.assert_rejected("serve", "--port", "65536")

    def test_negative_port(self):
        self.assert_rejected("serve", "--port", "-1")

    def test_negative_max_pending(self):
        self.assert_rejected("serve", "--max-pending", "-1")

    def test_negative_linger(self):
        self.assert_rejected("serve", "--linger-us", "-1")

    def test_non_numeric_threshold(self):
        self.assert_rejected("cluster", "--threshold", "abc")

    def test_non_finite_threshold(self):
        self.assert_rejected("cluster", "--threshold", "nan")
        self.assert_rejected("cluster", "--threshold", "inf")

    def test_trailing_garbage(self):
        self.assert_rejected("cluster", "--tile-size", "12x")
        self.assert_rejected("cluster", "--threshold", "0.5x")
        self.assert_rejected("serve", "--batch-max", "")
        self.assert_rejected("serve", "--batch-max", " 8")

    def test_every_integer_flag_rejects_negatives_and_text(self):
        for flag in ("--topk", "--shards", "--deadline-us", "--tile-size",
                     "--port", "--reactors", "--dispatchers", "--batch-max",
                     "--linger-us", "--max-pending", "--max-in-flight",
                     "--partitions", "--hashes", "--tree-depth",
                     "--min-size", "--seed"):
            with self.subTest(flag=flag):
                self.assert_rejected("serve", flag, "-1")
                self.assert_rejected("serve", flag, "abc")
                self.assert_rejected("serve", flag, "1.5")

    def test_int_fields_reject_overflow(self):
        for flag in ("--topk", "--shards", "--reactors", "--dispatchers",
                     "--partitions", "--hashes", "--tree-depth"):
            with self.subTest(flag=flag):
                self.assert_rejected("serve", flag, "2147483648")
        for flag in ("--seed", "--deadline-us", "--linger-us"):
            with self.subTest(flag=flag):
                self.assert_rejected("serve", flag, "18446744073709551616")

    def test_valid_values_reach_the_command(self):
        # In range: parsing succeeds and the command fails on the missing
        # snapshot directory instead (exit 1).
        result = run_lshe("serve", "/nonexistent/lshe-flags", "--port",
                          "65535", "--max-pending", "0", "--linger-us", "0")
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertNotIn("invalid value", result.stderr)

    def test_index_and_query_with_numeric_flags(self):
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "a.csv"), "w",
                      encoding="utf-8") as f:
                f.write("city,partner\nToronto,Acme\nOttawa,Bob\n"
                        "Montreal,Acme\n")
            with open(os.path.join(tmp, "q.csv"), "w",
                      encoding="utf-8") as f:
                f.write("city,owner\nToronto,X\nOttawa,Y\nMontreal,Z\n"
                        "Edmonton,W\n")
            result = run_lshe("index", "--out", "idx.lshe", "--catalog",
                              "idx.cat", "--min-size", "2", "--hashes",
                              "64", "--partitions", "4", "--seed", "7",
                              "a.csv", cwd=tmp)
            self.assertEqual(result.returncode, 0, result.stderr)
            result = run_lshe("query", "--index", "idx.lshe", "--catalog",
                              "idx.cat", "--query-csv", "q.csv", "--column",
                              "city", "--threshold", "0.5", cwd=tmp)
            self.assertEqual(result.returncode, 0, result.stderr)
            self.assertIn("a.csv:city", result.stdout)

    def test_column_selects_the_same_column_in_both_subcommands(self):
        tables = {
            "a.csv": "city,partner\nToronto,Acme\nOttawa,Bob\n"
                     "Montreal,Acme\n",
            "b.csv": "town,owner\nLyon,X\nNice,Y\nLille,Z\nBrest,W\n",
            "q.csv": "city,owner\nToronto,X\nOttawa,Y\nMontreal,Z\n"
                     "Edmonton,W\n",
        }
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in tables.items():
                with open(os.path.join(tmp, name), "w",
                          encoding="utf-8") as f:
                    f.write(text)
            result = run_lshe("index", "--out", "idx.lshe", "--catalog",
                              "idx.cat", "--min-size", "2", "a.csv",
                              "b.csv", cwd=tmp)
            self.assertEqual(result.returncode, 0, result.stderr)
            common = ("--index", "idx.lshe", "--catalog", "idx.cat",
                      "--query-csv", "q.csv", "--threshold", "0.5")
            expected = {"city": ["a.csv:city"], "owner": ["b.csv:owner"]}
            for column, found in expected.items():
                for command in ("query", "batch-query"):
                    result = run_lshe(command, *common, "--column", column,
                                      "--min-size", "2", cwd=tmp)
                    label = f"{command} --column {column}"
                    self.assertEqual(result.returncode, 0,
                                     f"{label}: {result.stderr}")
                    self.assertEqual(
                        [line.strip() for line in result.stdout.splitlines()
                         if line.startswith("  ")], found, label)

    def test_topk_is_the_same_on_every_path(self):
        # query --topk, batch-query --topk and batch-query --topk --shards
        # rank the same candidates: the ranked lines (estimate, name) must
        # match once the headers, which carry timings, are dropped.
        tables = {
            "a.csv": "city,partner\nToronto,Acme\nOttawa,Bob\n"
                     "Montreal,Acme\nCalgary,Dan\n",
            "b.csv": "town,owner\nToronto,X\nOttawa,Y\nVancouver,Z\n"
                     "Halifax,W\n",
            "c.csv": "place,ceo\nToronto,A\nEdmonton,B\nOttawa,C\n"
                     "Montreal,D\nWinnipeg,E\n",
            "q.csv": "city,owner\nToronto,X\nOttawa,Y\nMontreal,Z\n"
                     "Edmonton,W\n",
        }
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in tables.items():
                with open(os.path.join(tmp, name), "w",
                          encoding="utf-8") as f:
                    f.write(text)
            result = run_lshe("index", "--out", "idx.lshe", "--catalog",
                              "idx.cat", "--min-size", "2", "--hashes",
                              "64", "a.csv", "b.csv", "c.csv", cwd=tmp)
            self.assertEqual(result.returncode, 0, result.stderr)
            common = ("--index", "idx.lshe", "--catalog", "idx.cat",
                      "--query-csv", "q.csv", "--topk", "3")
            batch = ("batch-query", *common, "--column", "city",
                     "--min-size", "2")
            runs = {
                "query": ("query", *common, "--column", "city"),
                "batch-query": batch,
                "batch-query --shards 2": (*batch, "--shards", "2"),
            }
            ranked = {}
            for label, args in runs.items():
                result = run_lshe(*args, cwd=tmp)
                self.assertEqual(result.returncode, 0,
                                 f"{label}: {result.stderr}")
                ranked[label] = [
                    line.strip() for line in result.stdout.splitlines()
                    if re.match(r"^\s+\d\.\d{3}\s+\S", line)]
            self.assertEqual(len(ranked["query"]), 3, ranked)
            self.assertIn("c.csv:place", ranked["query"][0])
            for label, lines in ranked.items():
                self.assertEqual(lines, ranked["query"], label)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: cli_flags_test.py PATH_TO_LSHE [unittest args]")
    LSHE = os.path.abspath(sys.argv.pop(1))
    # A tree built without the lshe target would otherwise fail every
    # case with its own FileNotFoundError.
    if not (os.path.isfile(LSHE) and os.access(LSHE, os.X_OK)):
        sys.exit(f"lshe not built: {LSHE}")
    unittest.main()
