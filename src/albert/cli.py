"""Batch front end.

    albert check-axioms <scenario>   run a scenario's verification directives
    albert verify-map  <scenario>    same engine; conventional name for map runs
    albert build-cert  <scenario> -o cert.txt
                                     run the scenario and write its certificate
    albert check-cert  <cert.txt>    validate a certificate file independently

Common flags: --seed N (global seed for sampled suites), --samples N,
--format {text,machine}.  Exit status is 0 iff every check passes; error
classes get distinct nonzero statuses (1 failed checks, 2 parse error,
3 unresolved reference, 4 invalid parameters, 5 I/O).
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    AlbertError,
    CertificateError,
    ScenarioParseError,
    UnresolvedReference,
    read_text,
)

EXIT_CHECKS_FAILED = 1
EXIT_PARSE = 2
EXIT_UNRESOLVED = 3
EXIT_VALIDATION = 4
EXIT_IO = 5


def _common_flags(sub):
    sub.add_argument("--seed", type=int, default=None, help="global seed for sampled suites")
    sub.add_argument("--samples", type=int, default=None, help="override sample counts")
    sub.add_argument("--format", choices=("text", "machine"), default="text")


def build_parser():
    parser = argparse.ArgumentParser(prog="albert", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("check-axioms", "verify-map"):
        sub = subs.add_parser(name, help="run a scenario's verification directives")
        sub.add_argument("scenario")
        _common_flags(sub)
    sub = subs.add_parser("build-cert", help="run a scenario and write its certificate")
    sub.add_argument("scenario")
    sub.add_argument("-o", "--output", required=True, help="certificate output path")
    _common_flags(sub)
    sub = subs.add_parser("check-cert", help="validate a certificate file")
    sub.add_argument("certificate")
    sub.add_argument("--format", choices=("text", "machine"), default="text")
    return parser


def _run_scenario(args):
    from . import scenario as scen

    parsed = scen.parse_scenario(read_text(args.scenario, ScenarioParseError))
    return scen.execute(parsed, seed_override=args.seed, samples_override=args.samples)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("check-axioms", "verify-map"):
            report, _ = _run_scenario(args)
            sys.stdout.write(report.render(args.format))
            return report.exit_status
        if args.command == "build-cert":
            from .certfile import save_certificate
            from .rpaths import RCertificate

            report, env = _run_scenario(args)
            certs = [v for v in env.values() if isinstance(v, RCertificate)]
            if not certs:
                sys.stderr.write("scenario declares no certificate\n")
                return EXIT_VALIDATION
            save_certificate(certs[-1], args.output)
            report.record("certificate-written", True, args.output)
            sys.stdout.write(report.render(args.format))
            return report.exit_status
        if args.command == "check-cert":
            from .certfile import load_certificate
            from .rpaths import cert_check

            report = cert_check(load_certificate(args.certificate))
            sys.stdout.write(report.render(args.format))
            return report.exit_status
        return EXIT_VALIDATION
    except ScenarioParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except UnresolvedReference as exc:
        sys.stderr.write(f"unresolved reference: {exc}\n")
        return EXIT_UNRESOLVED
    except CertificateError as exc:
        sys.stderr.write(f"certificate error: {exc}\n")
        return EXIT_PARSE
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except AlbertError as exc:
        sys.stderr.write(f"error ({exc.code}): {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
