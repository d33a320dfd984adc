"""`mgt --config FILE` (format in `mgt --help`) as flags; `cli.main` loads it only for --config."""


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


def _config_flags(sp, config: dict[str, str]) -> list[str]:
    """The flags of sp that the config lines stand for, in file order.

    `key = value` is --key=value, so sp parses it as that flag's value (type
    and choices, exit 2 on a bad one); a boolean flag takes a boolean word
    and becomes --key or --no-key.
    """
    actions = {a.dest: a for a in sp._actions
               if a.option_strings and a.dest not in ("help", "config")}
    flags = []
    for key, val in config.items():
        action = actions.get(key)
        if action is None:
            raise ValueError(f"unknown config key {key!r} for {sp.prog}")
        if action.nargs == 0:  # a boolean flag: --key, --no-key
            if val.lower() not in _BOOLS:
                raise ValueError(f"config key {key}: not a boolean: {val!r}")
            flags.append(action.option_strings[0 if _BOOLS[val.lower()] else 1])
        else:
            flags.append(f"{action.option_strings[0]}={val}")
    return flags
