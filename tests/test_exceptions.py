"""Unit tests for the exception hierarchy and top-level package exports."""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import (
    GraphFormatError,
    IndexNotBuiltError,
    NodeNotFoundError,
    ParameterError,
    ReproError,
    StorageError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception_type",
        [
            GraphFormatError,
            NodeNotFoundError,
            ParameterError,
            IndexNotBuiltError,
            StorageError,
        ],
    )
    def test_all_errors_derive_from_repro_error(self, exception_type):
        assert issubclass(exception_type, ReproError)

    def test_parameter_error_is_value_error(self):
        assert issubclass(ParameterError, ValueError)

    def test_node_not_found_is_key_error(self):
        assert issubclass(NodeNotFoundError, KeyError)

    def test_index_not_built_is_runtime_error(self):
        assert issubclass(IndexNotBuiltError, RuntimeError)

    def test_storage_error_is_io_error(self):
        assert issubclass(StorageError, IOError)

    def test_node_not_found_message_and_payload(self):
        error = NodeNotFoundError(42)
        assert error.node == 42
        assert "42" in str(error)

    def test_index_not_built_message(self):
        assert "build()" in str(IndexNotBuiltError("widget"))


class TestPackageSurface:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_main_classes_exported(self):
        for name in (
            "DiGraph",
            "SlingIndex",
            "SlingParameters",
            "LinearizeIndex",
            "MonteCarloIndex",
            "PowerMethod",
        ):
            assert hasattr(repro, name)

    def test_all_list_is_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name)
