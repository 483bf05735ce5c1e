"""Every typed option of the command line is read by one of the program's
own readers: the `type=` of each `add_argument` in `cli.build_parser`
names a function of the package, never the builtin `int` or `float`,
which take '1_000', ' 7', '+7' and digits of other scripts."""

import ast
import builtins
import inspect

from mindrec import cli


def argument_types():
    """(the option's name, the `type=` expression) of each `add_argument`
    call in `cli.build_parser` that gives a type, nested helpers included."""
    tree = ast.parse(inspect.getsource(cli.build_parser))
    return [(call.args[0].value, keyword.value)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "add_argument"
            for keyword in call.keywords if keyword.arg == "type"]


def test_every_argument_type_is_a_reader_of_the_package():
    types = argument_types()
    assert {"--seed", "--now", "--p-stereotype"} <= {option for option, _ in types}
    for option, expression in types:
        assert isinstance(expression, ast.Name), option
        assert expression.id not in vars(builtins), option
        reader = getattr(cli, expression.id)
        assert inspect.getmodule(reader).__name__.startswith("mindrec."), option
