import importlib
import inspect
import types

import pytest

MODULES = ("capbounds", "chainformulas", "cli", "deskernel", "disttrack",
           "flows", "lpcore", "markovchain", "montecarlo", "netmodel")


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_functions_and_classes(name):
    module = importlib.import_module(f"qnd.{name}")
    public = {attr for attr, obj in vars(module).items()
              if not attr.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__}
    # Type aliases such as netmodel.ChannelModel are exported as well.
    aliases = {attr for attr in module.__all__
               if isinstance(getattr(module, attr, None), types.UnionType)}
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) - aliases == public
