"""The package namespace: public names resolve lazily to their layer's objects."""

import importlib

import pytest

import cancorr


def test_every_public_name_is_its_layer_object():
    for module, names in cancorr._EXPORTS.items():
        layer = importlib.import_module(f"cancorr.{module}")
        for name in names:
            assert getattr(cancorr, name) is getattr(layer, name)
    assert set(cancorr.__all__) == {*cancorr._SOURCE, "__version__"}
    assert len(cancorr.__all__) == len(set(cancorr.__all__))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cancorr import *", namespace)
    assert set(cancorr.__all__) <= set(namespace)
    assert namespace["fit_svd"] is cancorr.linear.fit_svd
    assert namespace["__version__"] == cancorr.__version__


def test_dir_lists_every_public_name_and_layer():
    listed = dir(cancorr)
    assert set(cancorr.__all__) <= set(listed)
    assert {"cli", "dataset", "kernel", "sparse"} <= set(listed)


def test_layer_modules_resolve_as_attributes():
    for layer in ("cli", "dataset", "numerics", "linear", "regularized", "kernel", "sparse",
                  "evaluation"):
        assert getattr(cancorr, layer) is importlib.import_module(f"cancorr.{layer}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'fit_nothing'"):
        cancorr.fit_nothing
    assert not hasattr(cancorr, "_private_helper")
    with pytest.raises(ImportError):
        exec("from cancorr import fit_nothing", {})
