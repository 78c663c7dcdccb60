"""The package's public names load lazily and are the objects their modules define."""

from importlib import import_module

import pytest

import hkmod

TABLE = sorted(hkmod._MODULE_OF.items())


@pytest.mark.parametrize("name, module", TABLE, ids=[name for name, _ in TABLE])
def test_public_name_is_its_modules_object(name, module):
    assert getattr(hkmod, name) is getattr(import_module(f"hkmod.{module}"), name)


@pytest.fixture()
def unresolved(monkeypatch):
    """The package namespace with no public name resolved yet (restored afterwards)."""
    for name in hkmod._MODULE_OF:
        monkeypatch.delitem(vars(hkmod), name, raising=False)


def test_dir_lists_every_public_name(unresolved):
    assert set(hkmod._MODULE_OF) <= set(dir(hkmod))


def test_lattice_is_the_function():
    # the submodule of the same name is bound first, then replaced by the function
    assert callable(hkmod.lattice) and hkmod.lattice.__name__ == "lattice"
    assert hkmod.lattice is import_module("hkmod.lattice").lattice


def test_star_import_binds_every_public_name(unresolved):
    namespace = {}
    exec("from hkmod import *", namespace)
    assert set(hkmod._MODULE_OF) <= set(namespace)
    assert namespace["verify_all"] is hkmod.verify_all


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        hkmod.no_such_name
