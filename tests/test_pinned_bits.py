"""Bits pinned before the evaluator was compiled to a tape.

Every value below was recorded with the recursive tree walker that the
tape replaced, as ``float.hex``; the tape must reproduce each bit.  The
rows cover every node kind, domain violations (division by zero, log of
a non-positive, a negative power of zero, NaN through ``pow``), signed
zero constants, integer, negative and fractional powers, constant-only
formulas, and the rhs brackets of the gallery entries and of one
``verify-oscillatory`` problem of the benchmark.

Three bits moved since, by design: ``x^-1`` at 1e300, ``x^-2`` at 0.3 and
``x^-3`` at 3.7, once the parser read ``-k`` after ``^`` as one negative
literal, whose power ``_pow_literal`` takes as ``1/x^k``.  The tree walker's
bits for ``x^(-k)``, whose exponent is no literal, stay pinned as
``pow(x, neg(k))``.  A fourth moved with them: ``pow(x, nan)`` at x = 1 is
NaN, as it is everywhere else and as its printed form ``x^(1e999-1e999)``
is, where np.power(1, nan) had given 1.
"""

import math

import numpy as np
import pytest

from quadratura import changevar, darboux
from quadratura.expr import add, const, div, evaluate_array, mul, neg, parse, pow_, sub, var
from quadratura.gallery import GALLERY, GALLERY_PROFILES
from quadratura.improper import ImproperSchedule, improper_verify

EVAL_POINTS = ('-0x1.0000000000000p+1', '-0x1.0000000000000p+0', '-0x1.0000000000000p-1', '-0x0.0p+0',
 '0x0.0p+0', '0x1.56e1fc2f8f359p-997', '0x1.3333333333333p-2', '0x1.0000000000000p-1',
 '0x1.0000000000000p+0', '0x1.0000000000000p+1', '0x1.d99999999999ap+1', '0x1.9000000000000p+6',
 '0x1.7e43c8800759cp+996', 'inf', '-inf', 'nan')
EVAL_PINNED = {'x': ('-0x1.0000000000000p+1', '-0x1.0000000000000p+0', '-0x1.0000000000000p-1', '-0x0.0p+0',
       '0x0.0p+0', '0x1.56e1fc2f8f359p-997', '0x1.3333333333333p-2', '0x1.0000000000000p-1',
       '0x1.0000000000000p+0', '0x1.0000000000000p+1', '0x1.d99999999999ap+1',
       '0x1.9000000000000p+6', '0x1.7e43c8800759cp+996', 'inf', '-inf', 'nan'),
 '-x': ('0x1.0000000000000p+1', '0x1.0000000000000p+0', '0x1.0000000000000p-1', '0x0.0p+0',
        '-0x0.0p+0', '-0x1.56e1fc2f8f359p-997', '-0x1.3333333333333p-2', '-0x1.0000000000000p-1',
        '-0x1.0000000000000p+0', '-0x1.0000000000000p+1', '-0x1.d99999999999ap+1',
        '-0x1.9000000000000p+6', '-0x1.7e43c8800759cp+996', '-inf', 'inf', 'nan'),
 'x+0.1': ('-0x1.e666666666666p+0', '-0x1.ccccccccccccdp-1', '-0x1.999999999999ap-2',
           '0x1.999999999999ap-4', '0x1.999999999999ap-4', '0x1.999999999999ap-4',
           '0x1.999999999999ap-2', '0x1.3333333333333p-1', '0x1.199999999999ap+0',
           '0x1.0cccccccccccdp+1', '0x1.e666666666667p+1', '0x1.9066666666666p+6',
           '0x1.7e43c8800759cp+996', 'inf', '-inf', 'nan'),
 '0.1-x': ('0x1.0cccccccccccdp+1', '0x1.199999999999ap+0', '0x1.3333333333333p-1',
           '0x1.999999999999ap-4', '0x1.999999999999ap-4', '0x1.999999999999ap-4',
           '-0x1.9999999999999p-3', '-0x1.999999999999ap-2', '-0x1.ccccccccccccdp-1',
           '-0x1.e666666666666p+0', '-0x1.ccccccccccccdp+1', '-0x1.8f9999999999ap+6',
           '-0x1.7e43c8800759cp+996', '-inf', 'inf', 'nan'),
 'x*0.1': ('-0x1.999999999999ap-3', '-0x1.999999999999ap-4', '-0x1.999999999999ap-5', '-0x0.0p+0',
           '0x0.0p+0', '0x1.124e63593f5e1p-1000', '0x1.eb851eb851eb8p-6', '0x1.999999999999ap-5',
           '0x1.999999999999ap-4', '0x1.999999999999ap-3', '0x1.7ae147ae147afp-2',
           '0x1.4000000000000p+3', '0x1.31cfd3999f7b0p+993', 'inf', '-inf', 'nan'),
 'x/3': ('-0x1.5555555555555p-1', '-0x1.5555555555555p-2', '-0x1.5555555555555p-3', '-0x0.0p+0',
         '0x0.0p+0', '0x1.c92d503f699ccp-999', '0x1.9999999999999p-4', '0x1.5555555555555p-3',
         '0x1.5555555555555p-2', '0x1.5555555555555p-1', '0x1.3bbbbbbbbbbbcp+0',
         '0x1.0aaaaaaaaaaabp+5', '0x1.fdafb60009cd0p+994', 'inf', '-inf', 'nan'),
 '3/x': ('-0x1.8000000000000p+0', '-0x1.8000000000000p+1', '-0x1.8000000000000p+2', 'nan', 'nan',
         '0x1.1eb2d66005835p+998', '0x1.4000000000000p+3', '0x1.8000000000000p+2',
         '0x1.8000000000000p+1', '0x1.8000000000000p+0', '0x1.9f22983759f22p-1',
         '0x1.eb851eb851eb8p-6', '0x1.01297d23ab682p-995', '0x0.0p+0', '-0x0.0p+0', 'nan'),
 'x-x': ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
         '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', 'nan', 'nan',
         'nan'),
 'x^0': ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
         '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
         '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
         '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
         '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', 'nan'),
 'x^1': ('-0x1.0000000000000p+1', '-0x1.0000000000000p+0', '-0x1.0000000000000p-1', '-0x0.0p+0',
         '0x0.0p+0', '0x1.56e1fc2f8f359p-997', '0x1.3333333333333p-2', '0x1.0000000000000p-1',
         '0x1.0000000000000p+0', '0x1.0000000000000p+1', '0x1.d99999999999ap+1',
         '0x1.9000000000000p+6', '0x1.7e43c8800759cp+996', 'inf', '-inf', 'nan'),
 'x^2': ('0x1.0000000000000p+2', '0x1.0000000000000p+0', '0x1.0000000000000p-2', '0x0.0p+0',
         '0x0.0p+0', '0x0.0p+0', '0x1.70a3d70a3d70ap-4', '0x1.0000000000000p-2',
         '0x1.0000000000000p+0', '0x1.0000000000000p+2', '0x1.b6147ae147ae2p+3',
         '0x1.3880000000000p+13', 'inf', 'inf', 'inf', 'nan'),
 'x^3': ('-0x1.0000000000000p+3', '-0x1.0000000000000p+0', '-0x1.0000000000000p-3', '-0x0.0p+0',
         '0x0.0p+0', '0x0.0p+0', '0x1.ba5e353f7ced9p-6', '0x1.0000000000000p-3',
         '0x1.0000000000000p+0', '0x1.0000000000000p+3', '0x1.95395810624dep+5',
         '0x1.e848000000000p+19', 'inf', 'inf', '-inf', 'nan'),
 'x^7': ('-0x1.0000000000000p+7', '-0x1.0000000000000p+0', '-0x1.0000000000000p-7', '-0x0.0p+0',
         '0x0.0p+0', '0x0.0p+0', '0x1.caa5ab1fd3dadp-13', '0x1.0000000000000p-7',
         '0x1.0000000000000p+0', '0x1.0000000000000p+7', '0x1.28a9806fd4a44p+13',
         '0x1.6bcc41e900000p+46', 'inf', 'inf', '-inf', 'nan'),
 'x^64': ('0x1.0000000000000p+64', '0x1.0000000000000p+0', '0x1.0000000000000p-64', '0x0.0p+0',
          '0x0.0p+0', '0x0.0p+0', '0x1.c86a34acddb4ep-112', '0x1.0000000000000p-64',
          '0x1.0000000000000p+0', '0x1.0000000000000p+64', '0x1.be38cab944a9cp+120',
          '0x1.27748f9301d33p+425', 'inf', 'inf', 'inf', 'nan'),
 'x^65': ('-0x1.0000000000000p+65', '-0x1.0000000000000p+0', '-0x1.0000000000000p-65', '-0x0.0p+0',
          '0x0.0p+0', '0x0.0p+0', '0x1.11d952ce1e9f8p-113', '0x1.0000000000000p-65',
          '0x1.0000000000000p+0', '0x1.0000000000000p+65', '0x1.9cc1551e92b75p+122',
          '0x1.cda62055b2d9dp+431', 'inf', 'inf', '-inf', 'nan'),
 'x^-1': ('-0x1.0000000000000p-1', '-0x1.0000000000000p+0', '-0x1.0000000000000p+1', 'nan', 'nan',
          '0x1.7e43c8800759bp+996', '0x1.aaaaaaaaaaaabp+1', '0x1.0000000000000p+1',
          '0x1.0000000000000p+0', '0x1.0000000000000p-1', '0x1.14c1bacf914c1p-2',
          '0x1.47ae147ae147bp-7', '0x1.56e1fc2f8f359p-997', '0x0.0p+0', '-0x0.0p+0', 'nan'),
 'x^-2': ('0x1.0000000000000p-2', '0x1.0000000000000p+0', '0x1.0000000000000p+2', 'nan', 'nan',
          'inf', '0x1.638e38e38e38ep+3', '0x1.0000000000000p+2', '0x1.0000000000000p+0',
          '0x1.0000000000000p-2', '0x1.2b324d6ac6977p-4', '0x1.a36e2eb1c432dp-14', '0x0.0p+0',
          '0x0.0p+0', '0x0.0p+0', 'nan'),
 'x^-3': ('-0x1.0000000000000p-3', '-0x1.0000000000000p+0', '-0x1.0000000000000p+3', 'nan', 'nan',
          'inf', '0x1.284bda12f684cp+5', '0x1.0000000000000p+3', '0x1.0000000000000p+0',
          '0x1.0000000000000p-3', '0x1.4374a6b89f57ap-6', '0x1.0c6f7a0b5ed8dp-20', '0x0.0p+0',
          '0x0.0p+0', '-0x0.0p+0', 'nan'),
 'x^0.5': ('nan', 'nan', 'nan', '-0x0.0p+0', '0x0.0p+0', '0x1.a2fe76a3f9475p-499',
           '0x1.186f174f88472p-1', '0x1.6a09e667f3bcdp-1', '0x1.0000000000000p+0',
           '0x1.6a09e667f3bcdp+0', '0x1.ec6d0353167a9p+0', '0x1.4000000000000p+3',
           '0x1.38d352e5096afp+498', 'inf', 'nan', 'nan'),
 'x^-0.5': ('nan', 'nan', 'nan', 'nan', 'nan', '0x1.38d352e5096afp+498', '0x1.d363d1848dcbfp+0',
            '0x1.6a09e667f3bcdp+0', '0x1.0000000000000p+0', '0x1.6a09e667f3bcdp-1',
            '0x1.0a2d168dc6f62p-1', '0x1.999999999999ap-4', '0x1.a2fe76a3f9475p-499', '0x0.0p+0',
            '0x0.0p+0', 'nan'),
 'x^2.5': ('nan', 'nan', 'nan', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.93d32bceafc29p-5',
           '0x1.6a09e667f3bcdp-3', '0x1.0000000000000p+0', '0x1.6a09e667f3bcdp+2',
           '0x1.a554f448da1d1p+4', '0x1.86a0000000000p+16', 'inf', 'inf', 'inf', 'nan'),
 'x^(1/3)': ('nan', 'nan', 'nan', '0x0.0p+0', '0x0.0p+0', '0x1.bff2ee48e0595p-333',
             '0x1.56bfea66ef78dp-1', '0x1.965fea53d6e3dp-1', '0x1.0000000000000p+0',
             '0x1.428a2f98d728bp+0', '0x1.8bf33eb6b7486p+0', '0x1.290fca9c761f7p+2',
             '0x1.249ad2594c33bp+332', 'inf', 'inf', 'nan'),
 'x^(1/2)': ('nan', 'nan', 'nan', '0x0.0p+0', '0x0.0p+0', '0x1.a2fe76a3f9475p-499',
             '0x1.186f174f88472p-1', '0x1.6a09e667f3bcdp-1', '0x1.0000000000000p+0',
             '0x1.6a09e667f3bcdp+0', '0x1.ec6d0353167a9p+0', '0x1.4000000000000p+3',
             '0x1.38d352e5096afp+498', 'inf', 'inf', 'nan'),
 'x^(4/2)': ('0x1.0000000000000p+2', '0x1.0000000000000p+0', '0x1.0000000000000p-2', '0x0.0p+0',
             '0x0.0p+0', '0x0.0p+0', '0x1.70a3d70a3d70ap-4', '0x1.0000000000000p-2',
             '0x1.0000000000000p+0', '0x1.0000000000000p+2', '0x1.b6147ae147ae2p+3',
             '0x1.3880000000000p+13', 'inf', 'inf', 'inf', 'nan'),
 'x^(0-2)': ('0x1.0000000000000p-2', '0x1.0000000000000p+0', '0x1.0000000000000p+2', 'nan', 'nan',
             'inf', '0x1.638e38e38e38fp+3', '0x1.0000000000000p+2', '0x1.0000000000000p+0',
             '0x1.0000000000000p-2', '0x1.2b324d6ac6977p-4', '0x1.a36e2eb1c432dp-14', '0x0.0p+0',
             '0x0.0p+0', '0x0.0p+0', 'nan'),
 'x^x': ('0x1.0000000000000p-2', '-0x1.0000000000000p+0', 'nan', '0x1.0000000000000p+0',
         '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.64c8e84c5f4e9p-1',
         '0x1.6a09e667f3bcdp-1', '0x1.0000000000000p+0', '0x1.0000000000000p+2',
         '0x1.fa4c55d77f0e3p+6', '0x1.4e718d7d7625ap+664', 'inf', 'inf', '0x0.0p+0', 'nan'),
 '2^x': ('0x1.0000000000000p-2', '0x1.0000000000000p-1', '0x1.6a09e667f3bcdp-1',
         '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
         '0x1.3b2c47bff8329p+0', '0x1.6a09e667f3bcdp+0', '0x1.0000000000000p+1',
         '0x1.0000000000000p+2', '0x1.9fdf8bcce533ep+3', '0x1.0000000000000p+100', 'inf', 'inf',
         '0x0.0p+0', 'nan'),
 '(-2)^x': ('0x1.0000000000000p-2', '-0x1.0000000000000p-1', 'nan', '0x1.0000000000000p+0',
            '0x1.0000000000000p+0', 'nan', 'nan', 'nan', '-0x1.0000000000000p+1',
            '0x1.0000000000000p+2', 'nan', '0x1.0000000000000p+100', 'inf', 'inf', '0x0.0p+0',
            'nan'),
 '0^x': ('nan', 'nan', 'nan', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x0.0p+0',
         '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
         '0x0.0p+0', 'nan', 'nan'),
 'sin(x)': ('-0x1.d18f6ead1b446p-1', '-0x1.aed548f090ceep-1', '-0x1.eaee8744b05f0p-2', '-0x0.0p+0',
            '0x0.0p+0', '0x1.56e1fc2f8f359p-997', '0x1.2e9cd95baba33p-2', '0x1.eaee8744b05f0p-2',
            '0x1.aed548f090ceep-1', '0x1.d18f6ead1b446p-1', '-0x1.0f46aec2e1b41p-1',
            '-0x1.03425b78c4db8p-1', '-0x1.a2c16b010e385p-1', 'nan', 'nan', 'nan'),
 'cos(x)': ('-0x1.aa22657537205p-2', '0x1.14a280fb5068cp-1', '0x1.c1528065b7d50p-1',
            '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
            '0x1.e921dd42f09bap-1', '0x1.c1528065b7d50p-1', '0x1.14a280fb5068cp-1',
            '-0x1.aa22657537205p-2', '-0x1.b23a2ad7dd937p-1', '0x1.b981dbf665fdfp-1',
            '-0x1.2699022adc4c1p-1', 'nan', 'nan', 'nan'),
 'tan(x)': ('0x1.17af62e0950f8p+1', '-0x1.8eb245cbee3a6p+0', '-0x1.17b4f5bf3474ap-1', '-0x0.0p+0',
            '0x0.0p+0', '0x1.56e1fc2f8f359p-997', '0x1.3cc2a44e29997p-2', '0x1.17b4f5bf3474ap-1',
            '0x1.8eb245cbee3a6p+0', '-0x1.17af62e0950f8p+1', '0x1.3fdd037da3554p-1',
            '-0x1.2ca74d62b5d38p-1', '0x1.6be411f37ac77p+0', 'nan', 'nan', 'nan'),
 'sqrt(x)': ('nan', 'nan', 'nan', '-0x0.0p+0', '0x0.0p+0', '0x1.a2fe76a3f9475p-499',
             '0x1.186f174f88472p-1', '0x1.6a09e667f3bcdp-1', '0x1.0000000000000p+0',
             '0x1.6a09e667f3bcdp+0', '0x1.ec6d0353167a9p+0', '0x1.4000000000000p+3',
             '0x1.38d352e5096afp+498', 'inf', 'nan', 'nan'),
 'atan(x)': ('-0x1.1b6e192ebbe44p+0', '-0x1.921fb54442d18p-1', '-0x1.dac670561bb4fp-2',
             '-0x0.0p+0', '0x0.0p+0', '0x1.56e1fc2f8f359p-997', '0x1.2a73a661eaf06p-2',
             '0x1.dac670561bb4fp-2', '0x1.921fb54442d18p-1', '0x1.1b6e192ebbe44p+0',
             '0x1.4e8c94dbf54e5p+0', '0x1.8f905eb2def22p+0', '0x1.921fb54442d18p+0',
             '0x1.921fb54442d18p+0', '-0x1.921fb54442d18p+0', 'nan'),
 'exp(x)': ('0x1.152aaa3bf81ccp-3', '0x1.78b56362cef38p-2', '0x1.368b2fc6f960ap-1',
            '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
            '0x1.599058c8c1a96p+0', '0x1.a61298e1e069cp+0', '0x1.5bf0a8b145769p+1',
            '0x1.d8e64b8d4ddaep+2', '0x1.4394144eeec81p+5', '0x1.3494a9b171bf5p+144', 'inf', 'inf',
            '0x0.0p+0', 'nan'),
 'log(x)': ('nan', 'nan', 'nan', 'nan', 'nan', '-0x1.5963447f87fb5p+9', '-0x1.34378fcbda721p+0',
            '-0x1.62e42fefa39efp-1', '0x0.0p+0', '0x1.62e42fefa39efp-1', '0x1.4eeee650ae550p+0',
            '0x1.26bb1bbb55516p+2', '0x1.5963447f87fb5p+9', 'inf', 'nan', 'nan'),
 'abs(x)': ('0x1.0000000000000p+1', '0x1.0000000000000p+0', '0x1.0000000000000p-1', '0x0.0p+0',
            '0x0.0p+0', '0x1.56e1fc2f8f359p-997', '0x1.3333333333333p-2', '0x1.0000000000000p-1',
            '0x1.0000000000000p+0', '0x1.0000000000000p+1', '0x1.d99999999999ap+1',
            '0x1.9000000000000p+6', '0x1.7e43c8800759cp+996', 'inf', 'inf', 'nan'),
 'log(x)^0': ('nan', 'nan', 'nan', 'nan', 'nan', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
              '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
              '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
              '0x1.0000000000000p+0', 'nan', 'nan'),
 '(0/x)^0': ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', 'nan', 'nan',
             '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
             '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
             '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
             '0x1.0000000000000p+0', 'nan'),
 'x^(log(x))': ('nan', 'nan', 'nan', 'nan', 'nan', 'inf', '0x1.10b77ae49e63ep+2',
                '0x1.9de70ac53b8a9p+0', '0x1.0000000000000p+0', '0x1.9de70ac53b8a9p+0',
                '0x1.6277c9a7741bcp+2', '0x1.82f90b06832f1p+30', 'inf', 'inf', 'nan', 'nan'),
 '(x-x)^(0-1)': ('nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan',
                 'nan', 'nan', 'nan', 'nan', 'nan'),
 'log(0*x)': ('nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan',
              'nan', 'nan', 'nan', 'nan'),
 'sqrt(x)^2': ('nan', 'nan', 'nan', '0x0.0p+0', '0x0.0p+0', '0x1.56e1fc2f8f359p-997',
               '0x1.3333333333332p-2', '0x1.0000000000001p-1', '0x1.0000000000000p+0',
               '0x1.0000000000001p+1', '0x1.d99999999999ap+1', '0x1.9000000000000p+6',
               '0x1.7e43c8800759bp+996', 'inf', 'nan', 'nan'),
 '1/0': ('nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan',
         'nan', 'nan', 'nan'),
 '2^3': ('0x1.0000000000000p+3', '0x1.0000000000000p+3', '0x1.0000000000000p+3',
         '0x1.0000000000000p+3', '0x1.0000000000000p+3', '0x1.0000000000000p+3',
         '0x1.0000000000000p+3', '0x1.0000000000000p+3', '0x1.0000000000000p+3',
         '0x1.0000000000000p+3', '0x1.0000000000000p+3', '0x1.0000000000000p+3',
         '0x1.0000000000000p+3', '0x1.0000000000000p+3', '0x1.0000000000000p+3',
         '0x1.0000000000000p+3'),
 'pi': ('0x1.921fb54442d18p+1', '0x1.921fb54442d18p+1', '0x1.921fb54442d18p+1',
        '0x1.921fb54442d18p+1', '0x1.921fb54442d18p+1', '0x1.921fb54442d18p+1',
        '0x1.921fb54442d18p+1', '0x1.921fb54442d18p+1', '0x1.921fb54442d18p+1',
        '0x1.921fb54442d18p+1', '0x1.921fb54442d18p+1', '0x1.921fb54442d18p+1',
        '0x1.921fb54442d18p+1', '0x1.921fb54442d18p+1', '0x1.921fb54442d18p+1',
        '0x1.921fb54442d18p+1'),
 'e': ('0x1.5bf0a8b145769p+1', '0x1.5bf0a8b145769p+1', '0x1.5bf0a8b145769p+1',
       '0x1.5bf0a8b145769p+1', '0x1.5bf0a8b145769p+1', '0x1.5bf0a8b145769p+1',
       '0x1.5bf0a8b145769p+1', '0x1.5bf0a8b145769p+1', '0x1.5bf0a8b145769p+1',
       '0x1.5bf0a8b145769p+1', '0x1.5bf0a8b145769p+1', '0x1.5bf0a8b145769p+1',
       '0x1.5bf0a8b145769p+1', '0x1.5bf0a8b145769p+1', '0x1.5bf0a8b145769p+1',
       '0x1.5bf0a8b145769p+1'),
 'sin(2)': ('0x1.d18f6ead1b446p-1', '0x1.d18f6ead1b446p-1', '0x1.d18f6ead1b446p-1',
            '0x1.d18f6ead1b446p-1', '0x1.d18f6ead1b446p-1', '0x1.d18f6ead1b446p-1',
            '0x1.d18f6ead1b446p-1', '0x1.d18f6ead1b446p-1', '0x1.d18f6ead1b446p-1',
            '0x1.d18f6ead1b446p-1', '0x1.d18f6ead1b446p-1', '0x1.d18f6ead1b446p-1',
            '0x1.d18f6ead1b446p-1', '0x1.d18f6ead1b446p-1', '0x1.d18f6ead1b446p-1',
            '0x1.d18f6ead1b446p-1'),
 'log(0)': ('nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan',
            'nan', 'nan', 'nan', 'nan'),
 '0^(0-1)': ('nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan',
             'nan', 'nan', 'nan', 'nan'),
 '(1/0)^0': ('nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan',
             'nan', 'nan', 'nan', 'nan'),
 '-0': ('-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0',
        '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0',
        '-0x0.0p+0', '-0x0.0p+0'),
 '0/0*x': ('nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan',
           'nan', 'nan', 'nan', 'nan'),
 't*sin(1/t)': ('0x1.eaee8744b05f0p-1', '0x1.aed548f090ceep-1', '0x1.d18f6ead1b446p-2', 'nan',
                'nan', '-0x1.3044066f0e1c4p-997', '-0x1.d456fecede8a4p-5', '0x1.d18f6ead1b446p-2',
                '0x1.aed548f090ceep-1', '0x1.eaee8744b05f0p-1', '0x1.f9ca1a6ff37c0p-1',
                '0x1.fffdd0c323a8bp-1', '0x1.0000000000000p+0', 'nan', 'nan', 'nan'),
 'x/(x^4+1)': ('-0x1.e1e1e1e1e1e1ep-4', '-0x1.0000000000000p-1', '-0x1.e1e1e1e1e1e1ep-2',
               '-0x0.0p+0', '0x0.0p+0', '0x1.56e1fc2f8f359p-997', '0x1.30bb4ef36e089p-2',
               '0x1.e1e1e1e1e1e1ep-2', '0x1.0000000000000p-1', '0x1.e1e1e1e1e1e1ep-4',
               '0x1.41bd2c7614b6ep-6', '0x1.0c6f79de55a1dp-20', '0x0.0p+0', 'nan', 'nan', 'nan'),
 '1/(x^2+1)': ('0x1.999999999999ap-3', '0x1.0000000000000p-1', '0x1.999999999999ap-1',
               '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
               '0x1.d5b98a919d5b9p-1', '0x1.999999999999ap-1', '0x1.0000000000000p-1',
               '0x1.999999999999ap-3', '0x1.16d44238cfba4p-4', '0x1.a3637230afb37p-14', '0x0.0p+0',
               '0x0.0p+0', '0x0.0p+0', 'nan'),
 'exp(-x^2)*cos(3*x)': ('0x1.202195b5ea7e5p-6', '-0x1.74f04a6dab6f0p-2', '0x1.c34c7f80512b2p-5',
                        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
                        '0x1.22df25eb76cb4p-1', '0x1.c34c7f80512b2p-5', '-0x1.74f04a6dab6f0p-2',
                        '0x1.202195b5ea7e5p-6', '0x1.fb8f052f28da3p-24', '-0x0.0p+0', '0x0.0p+0',
                        'nan', 'nan', 'nan'),
 'tan(x)^2+1': ('0x1.718fc1adda245p+2', '0x1.b67766959dae3p+1', '0x1.4c66fbe45147ep+0',
                '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
                '0x1.187f1199e669ep+0', '0x1.4c66fbe45147ep+0', '0x1.b67766959dae3p+1',
                '0x1.718fc1adda245p+2', '0x1.63ea23608901ap+0', '0x1.584622ad5a156p+0',
                '0x1.82a04b0c3c934p+1', 'nan', 'nan', 'nan'),
 'sin(1/x)+x*(cos(1/x)*(-1/x^2))': ('-0x1.4ce036f7c4500p-5', '-0x1.34658fea80cc4p-2',
                                    '-0x1.bdd8ea1129326p+0', 'nan', 'nan', 'nan',
                                    '0x1.8a7472c2812e7p+1', '0x1.bdd8ea1129326p+0',
                                    '0x1.34658fea80cc4p-2', '0x1.4ce036f7c4500p-5',
                                    '0x1.ac21d453432c0p-8', '0x1.65e90d7f60000p-22',
                                    '0x1.56e1fc2f8f359p-997', 'nan', 'nan', 'nan'),
 'mul(x, -0.0)': ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0',
                  '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0',
                  '-0x0.0p+0', 'nan', 'nan', 'nan'),
 'add(-0.0, mul(x, 0.0))': ('-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '0x0.0p+0',
                            '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                            '0x0.0p+0', '0x0.0p+0', 'nan', 'nan', 'nan'),
 'add(-0.0, -0.0)': ('-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0',
                     '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0',
                     '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0'),
 'div(1.0, -0.0)': ('nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan',
                    'nan', 'nan', 'nan', 'nan', 'nan'),
 'pow(x, -0.0)': ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
                  '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
                  '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
                  '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
                  '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', 'nan'),
 'sub(mul(x, 0.0), 0.0)': ('-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '0x0.0p+0',
                           '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                           '0x0.0p+0', '0x0.0p+0', 'nan', 'nan', 'nan'),
 'div(x, mul(x, -0.0))': ('nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan',
                          'nan', 'nan', 'nan', 'nan', 'nan', 'nan'),
 'pow(x, 1e300)': ('inf', '0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                   '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0', 'inf', 'inf', 'inf', 'inf',
                   'inf', 'inf', 'nan'),
 'pow(x, nan)': ('nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan',
                 'nan', 'nan', 'nan', 'nan', 'nan', 'nan', 'nan'),
 'pow(x, neg(1))': ('-0x1.0000000000000p-1', '-0x1.0000000000000p+0', '-0x1.0000000000000p+1', 'nan', 'nan',
                    '0x1.7e43c8800759bp+996', '0x1.aaaaaaaaaaaabp+1', '0x1.0000000000000p+1',
                    '0x1.0000000000000p+0', '0x1.0000000000000p-1', '0x1.14c1bacf914c1p-2',
                    '0x1.47ae147ae147bp-7', '0x1.56e1fc2f8f358p-997', '0x0.0p+0', '-0x0.0p+0', 'nan'),
 'pow(x, neg(2))': ('0x1.0000000000000p-2', '0x1.0000000000000p+0', '0x1.0000000000000p+2', 'nan', 'nan',
                    'inf', '0x1.638e38e38e38fp+3', '0x1.0000000000000p+2', '0x1.0000000000000p+0',
                    '0x1.0000000000000p-2', '0x1.2b324d6ac6977p-4', '0x1.a36e2eb1c432dp-14', '0x0.0p+0',
                    '0x0.0p+0', '0x0.0p+0', 'nan'),
 'pow(x, neg(3))': ('-0x1.0000000000000p-3', '-0x1.0000000000000p+0', '-0x1.0000000000000p+3', 'nan', 'nan',
                    'inf', '0x1.284bda12f684cp+5', '0x1.0000000000000p+3', '0x1.0000000000000p+0',
                    '0x1.0000000000000p-3', '0x1.4374a6b89f579p-6', '0x1.0c6f7a0b5ed8dp-20', '0x0.0p+0',
                    '0x0.0p+0', '-0x0.0p+0', 'nan')}
RHS_PINNED = {'E1': (1024, '0x1.4f7094d5b7231p-5', '0x1.515a0ae94eb1dp-5'),
 'E2': (65536, '0x1.921f35442d7c3p-2', '0x1.922035442d7a3p-2'),
 'E3': (34, 68608, '0x1.921fb543de48ep+1', '0x1.0000000000000p-48'),
 'oscillatory': (65536, '0x1.5ddebad95170dp-5', '0x1.5de69a1fcdfb4p-5')}

_X = var("x")
# Signed zero and special constants, built directly: the parser reads -0.0
# only as an exponent.  pow(x, neg(k)) is the tree ``x^(-k)`` parses to; its
# exponent is no literal, so it keeps the bits ``x^-k`` had before the parser
# read ``-k`` after ``^`` as one negative literal.
SPECIAL = {
    "pow(x, neg(1))": pow_(_X, neg(const(1.0))),
    "pow(x, neg(2))": pow_(_X, neg(const(2.0))),
    "pow(x, neg(3))": pow_(_X, neg(const(3.0))),
    "mul(x, -0.0)": mul(_X, const(-0.0)),
    "add(-0.0, mul(x, 0.0))": add(const(-0.0), mul(_X, const(0.0))),
    "add(-0.0, -0.0)": add(const(-0.0), const(-0.0)),
    "div(1.0, -0.0)": div(const(1.0), const(-0.0)),
    "pow(x, -0.0)": pow_(_X, const(-0.0)),
    "sub(mul(x, 0.0), 0.0)": sub(mul(_X, const(0.0)), const(0.0)),
    "div(x, mul(x, -0.0))": div(_X, mul(_X, const(-0.0))),
    "pow(x, 1e300)": pow_(_X, const(1e300)),
    "pow(x, nan)": pow_(_X, const(math.nan)),
}


def _hexes(values):
    return tuple(float(v).hex() for v in np.asarray(values, dtype=float).ravel())


class TestEvaluatorBits:
    @pytest.mark.parametrize("key", sorted(EVAL_PINNED))
    def test_bits(self, key):
        e = SPECIAL[key] if key in SPECIAL else parse(key)
        xs = np.array([float.fromhex(h) for h in EVAL_POINTS])
        ys = evaluate_array(e, xs)
        assert ys.shape == xs.shape
        assert _hexes(ys) == EVAL_PINNED[key]

    @pytest.mark.parametrize("key", sorted(EVAL_PINNED))
    def test_bits_pointwise_and_in_blocks(self, key):
        # one point at a time, and spread over several 8,192-point blocks
        e = SPECIAL[key] if key in SPECIAL else parse(key)
        xs = np.array([float.fromhex(h) for h in EVAL_POINTS])
        single = tuple(_hexes(evaluate_array(e, xs[i : i + 1]))[0] for i in range(xs.size))
        assert single == EVAL_PINNED[key]
        long = np.tile(xs, 1500)
        assert _hexes(evaluate_array(e, long)) == EVAL_PINNED[key] * 1500


class TestRhsBits:
    @pytest.mark.parametrize("entry", GALLERY, ids=lambda g: g.id)
    def test_gallery_rhs(self, entry):
        prof = GALLERY_PROFILES[entry.id]
        cfg = darboux.SamplingConfig(samples_per_cell=prof["samples"])
        p = changevar.SubstitutionProblem(
            f=parse(entry.f), phi=parse(entry.phi), alpha=entry.alpha, beta=entry.beta
        )
        if entry.improper:
            sched = ImproperSchedule(
                lo=entry.alpha, hi=entry.beta, lo_open=True, hi_open=True,
                offset=prof["t_offset"], max_steps=prof["max_steps"], tol=prof["rhs_tol"],
            )
            rep = improper_verify(
                p, sched, tol=entry.tol, rhs_inner_tol=prof["rhs_inner_tol"],
                lhs_inner_tol=prof["lhs_inner_tol"], lhs_cutoff_base=prof["lhs_cutoff_base"],
                lhs_max_steps=prof["lhs_max_steps"], lhs_tol=prof["lhs_tol"], cfg=cfg,
            )
            last = rep.rhs.steps[-1]
            got = (len(rep.rhs.steps), last["cells"],
                   float(last["value"]).hex(), float(last["bracket_width"]).hex())
        else:
            est = changevar.rhs_integral(p, prof["verify_tol"] / 2.0, cfg)
            got = (est.cells, est.lower.hex(), est.upper.hex())
        assert got == RHS_PINNED[entry.id]

    def test_verify_oscillatory_rhs(self):
        p = changevar.SubstitutionProblem(
            f=parse("x^3"), phi=parse("t*sin(1/t)"), alpha=0.0, beta=2.0 / math.pi * 1.01
        )
        est = changevar.rhs_integral(p, 1e-5 / 2.0, darboux.SamplingConfig(samples_per_cell=64))
        assert (est.cells, est.lower.hex(), est.upper.hex()) == RHS_PINNED["oscillatory"]
