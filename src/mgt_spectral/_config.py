"""`mgt --config FILE` (format in `mgt --help`); `cli.main` loads it only for --config."""


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    out: dict[str, str] = {}
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected 'key = value', got {raw.strip()!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key or not val:
            raise ValueError(f"{path}:{ln}: empty key or value")
        out[key.replace("-", "_")] = val
    return out


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _apply_config(sp, config: dict[str, str]) -> None:
    """Make each config value the default of the option of sp that it names.

    A value is parsed by sp itself, as its flag's value would be (type and
    choices, exit 2 on a bad one); a boolean flag takes a boolean word.
    """
    actions = {a.dest: a for a in sp._actions
               if a.option_strings and a.dest not in ("help", "config")}
    for key, val in config.items():
        action = actions.get(key)
        if action is None:
            raise ValueError(f"unknown config key {key!r} for {sp.prog}")
        if action.nargs == 0:  # a boolean flag
            if val.lower() not in _BOOLS:
                raise ValueError(f"config key {key}: not a boolean: {val!r}")
            val = _BOOLS[val.lower()]
        else:
            val = getattr(sp.parse_args([f"{action.option_strings[0]}={val}"]), key)
        sp.set_defaults(**{key: val})
