"""Shared pytest options: slow tests run only when asked for with --run-slow, and
numpy's RuntimeWarnings (overflow, invalid value, division by zero) fail a test."""

import pytest


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true", default=False, help="also run tests marked slow")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running test, skipped unless --run-slow is given")
    # a batched kernel over masked rows must not make an inf or NaN silently
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow; run with --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
