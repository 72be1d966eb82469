"""Closed-form error rate and Fisher information of the homodyne BPSK link.

The outcome density at LO phase ``psi`` is the two-component Gaussian mixture

    p(x) = (1/2) * sum_m Normal(x; mu_m, sigma^2),   mu_m = A*cos(phi_m + phi),

with ``phi = theta - psi``.  This module provides:

* the exact bit error rate of the ML symbol detector,
      P_e = Q((A/sigma) * |cos(phi)|);
* the per-symbol Fisher information of ``theta``, i.e. the variance of the
  score of the mixture density, plus an independent Monte-Carlo estimate of
  the same quantity for cross-checks.  The means are antipodal (mu_1 =
  -mu_0 = -mu), so the score (mu'/sigma^2) * (x*tanh(mu*x/sigma^2) - mu) is
  even in x and its mixture variance equals its second moment under the
  single lobe N(mu, sigma^2).  With z = (x - mu)/sigma and r =
  A*|cos(phi)|/sigma it factors as F = (A^2 sin^2(phi) / sigma^2) * h(r),
  h(r) = E_z[((r + z)*tanh(r*(r + z)) - r)^2], one channel-independent h
  (~2r^2 near 0, -> 1 as the lobes separate).  h ships as constants: 36
  uniform pieces on [0, 9], each a degree-13 polynomial sampled from a fixed
  Gauss-Legendre rule in z (tests/h_reference.py) and certified by
  tests/test_analytics.py::test_shipped_table_of_h_is_certified, so each
  Fisher value costs one 14-term Horner sum and nothing is built at run time.
  :func:`offset_table` evaluates many offsets in one array pass that returns
  the scalar functions' values bit for bit;
* the separated-lobe closed form (A^2/sigma^2) * sin^2(phi), which bounds
  the mixture Fisher information at every offset and is its high-SNR limit
  only where the lobes separate, A*|cos(phi)|/sigma >> 1 (at phi = pi/2
  the symbol means coincide and the exact information is 0);
* the numerically-located Fisher maximum over ``phi`` and the resulting
  known-theta Pareto frontier between error rate and required block Fisher
  information.

All angles are radians.  Per-symbol Fisher information carries units of
radians^-2; block quantities are N times the per-symbol value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InfeasibleError
from .physics import (
    ChannelParams,
    block_mean_derivs,
    block_means,
    canonical_phase,
    expit,
    sample_block,
)

__all__ = [
    "FisherReport",
    "ParetoPoint",
    "q_function",
    "ber_theory",
    "fisher_symbol",
    "fisher_block",
    "fisher_symbol_mc",
    "fisher_high_snr",
    "fisher_argmax",
    "fc_max",
    "offset_table",
    "optimal_angles",
    "pareto_known_theta",
]

# The table of h: q(r) = h(r) * (1 + r^2) / r^2 on [0, _R_EDGE] in _H_PIECES
# uniform pieces.  Piece i covers u = r * _H_SCALE in [i, i + 1] and holds,
# highest degree first, the powers of t = 2*(u - i) - 1 in [-1, 1] of the
# degree-_H_DEGREE polynomial through q at its _H_DEGREE + 1 Chebyshev points
# of the first kind.  h(r) there is the reference quadrature on _H_NODES nodes
# for the channel A = sqrt(1 + r^2), sigma^2 = 1 at offset atan2(1, r) (mean r,
# mean derivative -1).  _H_RTOL is its certified relative error: each sample
# against half the nodes, the table against quadrature at its nodes, between
# them and at both ends of every piece, and against h = 1 at the edge.  The
# table is made by tests/h_reference.py and certified by
# tests/test_analytics.py::test_shipped_table_of_h_is_certified.  Beyond
# _R_EDGE, h = 1 (1 - h(8) < 1e-15).
_R_EDGE = 9.0
_H_PIECES = 36
_H_DEGREE = 13
_H_SCALE = _H_PIECES / _R_EDGE   # 4.0, so r -> u is exact
_H_NODES = 4096
_H_RTOL = 1.036964078678333e-13
_H_TABLE = (
    (5.149753712256032e-09, -1.7602579070894223e-08, -3.417148437072301e-08, 3.327928890333195e-07,
     -4.19871013236305e-07, -3.621041640577647e-06, 1.6065390426289517e-05, 1.5507045608440072e-05,
     -0.0003148469699598474, 0.0005147890955346275, 0.0048282062912406686, -0.022826836392241253,
     -0.05654607972551133, 1.970282742195921),
    (2.308150345611436e-11, -5.467740684538113e-10, 3.5332400096542264e-09, -1.0197348255081261e-08,
     -2.4098424703996126e-08, 4.813444465337423e-07, -2.8864309184690434e-06, 6.426402102989579e-06,
     4.510869262832214e-05, -0.0005223744985057886, 0.0021211852994192553, 0.001842082408429349,
     -0.0919864006816383, 1.8048161736119654),
    (2.6063681295214388e-12, 1.3288745637932167e-11, -1.573588846274136e-10, 1.2054510798449796e-09,
     -6.62073443108913e-09, 1.3681722983334578e-08, 2.0318762576964097e-07, -3.1461233749261553e-06,
     2.447179350438913e-05, -9.747094598256215e-05, -0.00016868679468966507, 0.005944827498548492,
     -0.071917360073046, 1.6384141608699572),
    (1.8033305702233376e-12, 3.738714950047309e-12, -1.3527396194730074e-11, -7.444980120602012e-13,
     4.990248180656193e-10, -8.649424408665221e-09, 9.641191257199296e-08, -7.4961849633266e-07,
     2.974956964439223e-06, 1.529752401559385e-05, -0.00035678130369298864, 0.003937074644705864,
     -0.05183312192579952, 1.5160585622604072),
    (8.545842343181798e-13, 1.8667665884060683e-12, -2.0793273300729903e-12, -2.0043607895803895e-11,
     1.957673936515236e-10, -2.143923350180143e-09, 1.8107362708442972e-08, -7.033970428242754e-08,
     -8.724921029009999e-07, 1.926248820634737e-05, -0.00019430715520906281, 0.0022731030493827902,
     -0.039747167177996444, 1.4255887232316975),
    (1.4793043132364889e-12, 1.8613889429276613e-12, -4.447444081139841e-12, -9.764097539739925e-12,
     4.5792525753980804e-11, -3.6686115718544777e-10, 1.4479315720367366e-09, 3.459021261356702e-08,
     -8.635646024323284e-07, 9.595889188939185e-06, -7.922539992312767e-05, 0.0014919394179278593,
     -0.0324470554899453, 1.3539099752577952),
    (1.5899855938467667e-12, 1.669877123463214e-12, -5.082669897345699e-12, -6.2925267455114076e-12,
     1.3352171242276905e-11, -2.2481087411929305e-11, -1.0303924708540744e-09, 3.139896360117646e-08,
     -4.3497537868116167e-07, 3.1471892470659985e-06, -3.11526367711465e-05, 0.0011865607987638625,
     -0.027185033630491292, 1.2944780401935987),
    (1.0443039116764932e-12, 1.874603115595806e-12, -3.465124597198004e-12, -6.342348542578068e-12,
     5.172648055836661e-12, 3.1320971798111237e-11, -9.348084473956158e-10, 1.675305441881058e-08,
     -1.4773140990662155e-07, 3.8192562535611763e-07, -1.8948627901705743e-05, 0.001047198819498709,
     -0.02274115788817385, 1.24464330458572),
    (9.997415908117176e-13, 1.976629581568684e-12, -3.2197551520065253e-12, -6.5121645939237875e-12,
     3.6225592508174154e-12, 3.090712772185732e-11, -5.40238603475614e-10, 6.4882370589808805e-09,
     -1.3811501116873942e-08, -3.2320586383327144e-07, -1.9599076806694332e-05, 0.000934294179909611,
     -0.01877651815014126, 1.2032005378652695),
    (1.2029413485698644e-12, 1.9307047907997816e-12, -4.106782393612174e-12, -6.2789658912775774e-12,
     5.024792422307691e-12, 2.2211481132103243e-11, -2.4240474941802113e-10, 1.2098148121306852e-09,
     2.8244310516856772e-08, -1.985814088029788e-07, -2.1961019106030667e-05, 0.0008090735278488061,
     -0.015284949894087851, 1.1692226246933526),
    (7.924976527857534e-13, 1.5861377719113666e-12, -2.670020170606561e-12, -5.274186698747133e-12,
     3.2174861465132423e-12, 1.3961688517756551e-11, -7.047986607553189e-11, -8.043569450040042e-10,
     2.8346919948947574e-08, 1.0424342932219431e-07, -2.2335898133626016e-05, 0.0006749556665734713,
     -0.012316143282074773, 1.1417111079399547),
    (1.3956139661526648e-12, 1.7419883943360688e-12, -4.645472718068562e-12, -5.738117697233502e-12,
     5.8093206664704715e-12, 9.860666723855311e-12, 4.3812582191466596e-12, -1.1389560945694447e-09,
     1.567775804211835e-08, 3.2752948088951894e-07, -2.052294566607963e-05, 0.0005454835128905438,
     -0.009878925416090215, 1.1196024735671062),
    (1.6698449070290316e-12, 1.6847504468088823e-12, -5.459812455271061e-12, -5.612937030761582e-12,
     6.8409478315504184e-12, 7.422556251808891e-12, 2.5369409023859123e-11, -8.307990539224516e-10,
     3.6156586650926526e-09, 4.2081545550517046e-07, -1.7448772046506583e-05, 0.000431197781819955,
     -0.007931743560764464, 1.1018680443406248),
    (8.863082348889885e-13, 1.5384946386293767e-12, -2.8996397074244628e-12, -5.1304577773960315e-12,
     3.681155370239804e-12, 5.95940494600787e-12, 2.4078367063341575e-11, -4.2231627233730333e-10,
     -3.8058516418776995e-09, 4.157409500570257e-07, -1.4053150522932e-05, 0.00033671561421868114,
     -0.006402727761034032, 1.0875965577949793),
    (2.0863051390778053e-12, 2.459888949759632e-12, -6.927400773524027e-12, -7.905938487204661e-12,
     8.931783316159058e-12, 8.998095641776008e-12, 1.0705239698353518e-11, -1.2358720590832627e-10,
     -6.880858291624983e-09, 3.592888977721851e-07, -1.0932726645020323e-05, 0.00026198619979316256,
     -0.0052115730733465334, 1.076032046003826),
    (7.347535668145402e-13, 1.9306530911962318e-12, -2.44205263123115e-12, -6.2658435957505005e-12,
     3.1761669309162668e-12, 7.261415243810263e-12, 5.415715598579782e-12, 3.971211165433814e-11,
     -7.200797245170579e-09, 2.8725347188185513e-07, -8.34460868866469e-06, 0.00020444362512762564,
     -0.004283890413512805, 1.0665749055690739),
    (8.964931882593768e-13, 1.6394916812926154e-12, -2.8555373445123278e-12, -5.413225368737427e-12,
     3.5201647108753172e-12, 6.544591275203655e-12, -1.7388503002668463e-13, 1.0125623471122248e-10,
     -6.227557283317717e-09, 2.1950278955753236e-07, -6.324183465702227e-06, 0.00016070873102583816,
     -0.0035576238973012986, 1.0587625116294161),
    (1.5802416525375323e-12, 1.7608143217436403e-12, -5.0539632891915604e-12, -5.873905284464234e-12,
     6.207634688815451e-12, 7.3586095689457e-12, -4.342394431727143e-12, 1.0635010427093738e-10,
     -4.89481903772921e-09, 1.6383302699074283e-07, -4.799779429226233e-06, 0.00012755956063585858,
     -0.0029841325414700316, 1.0522428249397346),
    (6.731464313421056e-13, 1.6843481178213043e-12, -2.1668386800981077e-12, -5.604629488219808e-12,
     2.7098314104017138e-12, 7.0653627559891686e-12, -3.1797150220643555e-12, 8.940405866065596e-11,
     -3.657653450451614e-09, 1.2123781905388892e-07, -3.6677718340269864e-06, 0.00010232714714146471,
     -0.0025266198313768744, 1.0467488714853268),
    (2.1291490184031525e-12, 1.6498664609378604e-12, -6.912702891838177e-12, -5.5400262536343255e-12,
     8.657933786921063e-12, 7.070876756461198e-12, -6.7475548722455635e-12, 6.732468412000808e-11,
     -2.6661270570734374e-09, 8.983071341051249e-08, -2.830109813013995e-06, 8.295895350890696e-05,
     -0.0021577203128620753, 1.042077426753604),
    (1.4612396431652977e-12, 1.688345908977977e-12, -4.72620302860359e-12, -5.5539746035477e-12,
     5.926386623822824e-12, 6.967579453642994e-12, -4.846319073377212e-12, 4.796161832889601e-11,
     -1.92941191991122e-09, 6.703508563984109e-08, -2.2075642758958677e-06, 6.79369583022087e-05,
     -0.0018571716172527742, 1.038072537359078),
    (1.4524867155212777e-12, 1.7375423603841027e-12, -4.703454215174015e-12, -5.7078239918431386e-12,
     5.894972367542138e-12, 7.133080092910042e-12, -4.489606761488208e-12, 3.291365206399447e-11,
     -1.3994616652332154e-09, 5.052957375085509e-08, -1.7408414765390152e-06, 5.615764430965466e-05,
     -0.001609914447418065, 1.0346132953902407),
    (1.4070670972875931e-12, 1.7335463174152083e-12, -4.568625112189745e-12, -5.713595743337338e-12,
     5.7517943979909025e-12, 7.182140016911306e-12, -4.163076724717103e-12, 2.2048044884700293e-11,
     -1.0232140162180717e-09, 3.851323874535882e-08, -1.3871826399308185e-06, 4.6821552223999755e-05,
     -0.0014046623710802396, 1.0316049362407773),
    (1.2440526338158685e-12, 1.4249877527011358e-12, -3.970540185696857e-12, -4.76349303326156e-12,
     4.845081288301741e-12, 6.0610779863362654e-12, -3.2550117074936098e-12, 1.511217853029515e-11,
     -7.563131999414493e-10, 2.9681654623685132e-08, -1.1161892125062248e-06, 3.9346702758314824e-05,
     -0.0012328671370033634, 1.0289723852670676),
    (6.096065668264927e-13, 1.8483222865390367e-12, -1.8458188965450258e-12, -6.0145450393680445e-12,
     2.12110623554336e-12, 7.432703506752975e-12, -1.460302528174484e-12, 9.170834270578821e-12,
     -5.656792021814624e-10, 2.3118956587059225e-08, -9.062667517260971e-07, 3.330554466173732e-05,
     -0.0010879819783625071, 1.0266555600982243),
    (1.3938844132170548e-12, 1.7301786497800203e-12, -4.515095639333809e-12, -5.683061973838069e-12,
     5.672006464926162e-12, 7.091030233044268e-12, -3.677954900604285e-12, 5.6514451603500434e-12,
     -4.268105637506304e-10, 1.8186450057954497e-08, -7.419732726444853e-07, 2.8380525714710828e-05,
     -0.0009649380569929908, 1.0246059207837517),
    (1.4727030497616277e-12, 1.5725289223549593e-12, -4.685828127277899e-12, -5.135783977821159e-12,
     5.759907301234234e-12, 6.372873571132191e-12, -3.5821652904236557e-12, 3.493551648179282e-12,
     -3.2587323426011105e-10, 1.4438520516657664e-08, -6.12153721702201e-07, 2.4333116162804353e-05,
     -0.0008597701433363605, 1.0227839088615474),
    (7.438962155533236e-13, 1.4228885619960982e-12, -2.3255151504259907e-12, -4.683765316587262e-12,
     2.806006006007434e-12, 5.842747886878892e-12, -1.7478264193516446e-12, 1.960275415146863e-12,
     -2.517539620622805e-10, 1.156130702495087e-08, -5.086587533955302e-07, 2.0982173073809075e-05,
     -0.0007693463556923784, 1.0211570247929194),
    (4.3581955477504296e-13, 1.5536209296580567e-12, -1.3400334064981855e-12, -5.144696349547388e-12,
     1.5977582534202455e-12, 6.469091119091652e-12, -1.0078398927729171e-12, 2.174954604907428e-13,
     -1.9616120638181164e-10, 9.331438686606821e-09, -4.2546683575771747e-07, 1.818870598534386e-05,
     -0.0006911708325195813, 1.0196983687287673),
    (1.260325851241414e-12, 1.707549222201301e-12, -4.0099002356881936e-12, -5.654693971406455e-12,
     4.902864259747774e-12, 7.11525638552244e-12, -2.9305050350778635e-12, -1.1415596838690488e-12,
     -1.5348556206638534e-10, 7.587574523458316e-09, -3.5807996805152753e-07, 1.5845034126287264e-05,
     -0.0006232380136092874, 1.0183855214018864),
    (1.0593085232373044e-12, 1.3281287113981342e-12, -3.466836309526075e-12, -4.482841726178669e-12,
     4.434829908322886e-12, 5.736656908496313e-12, -2.8216759405603278e-12, -1.0866923356939962e-12,
     -1.2132498475516455e-10, 6.212069397128352e-09, -3.0310350066068633e-07, 1.3866979888931473e-05,
     -0.0005639238526523068, 1.0171996775060466),
    (1.1801260901276352e-12, 1.7335395869595119e-12, -3.789076893495704e-12, -5.718579846129053e-12,
     4.731035339103278e-12, 7.15897448488073e-12, -2.914627072052095e-12, -2.3783553717259866e-12,
     -9.661524615956661e-11, 5.1191921930933e-09, -2.5795111762543857e-07, 1.2188184703339635e-05,
     -0.0005119037620874878, 1.0161249685059222),
    (1.4645492675530598e-12, 1.877019976348881e-12, -4.771774878367521e-12, -6.086966166424084e-12,
     6.06111613613462e-12, 7.495615109623305e-12, -3.784404940432599e-12, -2.9123890495708953e-12,
     -7.717705049623153e-11, 4.244111654753412e-09, -2.206345311431928e-07, 1.075592580183384e-05,
     -0.00046609012288909306, 1.0151479289940843),
    (1.6125823331951452e-12, 1.7906710222798627e-12, -5.179635041028926e-12, -5.820608545284829e-12,
     6.4617966908823955e-12, 7.1729657550001136e-12, -3.947103135366517e-12, -3.024247721499317e-12,
     -6.217014492142148e-11, 3.5386264712203698e-09, -1.8961221874683987e-07, 9.528005805778837e-06,
     -0.00042558426401510823, 1.0142570728447329),
    (1.1624798016998543e-12, 1.821774069449816e-12, -3.8934933196130364e-12, -5.90845889850051e-12,
     5.0821717106869895e-12, 7.262386644544835e-12, -3.242442508466191e-12, -3.2937621639098328e-12,
     -5.056096123172471e-11, 2.9663031916449557e-09, -1.636797192955513e-07, 8.470418348738652e-06,
     -0.00038963924884317914, 1.0134425540852776),
    (9.698284564241557e-13, 1.5269395018427432e-12, -3.0901973682857423e-12, -5.040346467425466e-12,
     3.867501373109385e-12, 6.328847242628576e-12, -2.40046779537291e-12, -3.0296502489130704e-12,
     -4.1480200892138034e-11, 2.499048281497745e-09, -1.4188893541197757e-07, 7.555580344939632e-06,
     -0.00035763080765481884, 1.0126958936718917),
)
# the same literals by degree, one array over the pieces each, for many offsets at once
_H_COLUMNS = tuple(np.array(col) for col in zip(*_H_TABLE))


@dataclass(frozen=True)
class FisherReport:
    """Fisher information of one channel and offset, from the table of h.

    Attributes:
        per_symbol: Fisher information per homodyne outcome (radians^-2).
        block: N * per_symbol for the block length ``n``.
        n: block length used for ``block``.
        quad_nodes: node count of the quadrature rule the shipped table of
            h was sampled on; a constant, 4096.
        quad_error_est: per_symbol times the table's certified relative
            error, 1.04e-13 (quadrature doubling and interpolation).
    """

    per_symbol: float
    block: float
    n: int
    quad_nodes: int
    quad_error_est: float


@dataclass(frozen=True)
class ParetoPoint:
    """One point of the known-theta trade-off frontier.

    ``phi_star`` is the smallest offset |phi| whose block Fisher information
    meets ``gamma_min``; ``ber`` is the error rate paid for operating there.
    """

    gamma_min: float
    phi_star: float
    ber: float


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = (1/2) * erfc(x / sqrt(2))."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def ber_theory(params: ChannelParams, psi: float) -> float:
    """Exact BER of ML detection: Q((A/sigma) * |cos(theta - psi)|)."""
    a = params.amplitude()
    sigma = math.sqrt(params.noise_var())
    return q_function(a / sigma * abs(math.cos(params.theta - psi)))


def _mixture_score(x, mu, dmu, sigma2):
    """Score d/dtheta log p(x) of the antipodal mixture with means +-mu.

    Equals (dmu/sigma2) * (x*tanh(mu*x/sigma2) - mu), written as
    (x - mu) - 2x*expit(-2*mu*x/sigma2) so that nothing cancels when the
    lobes separate and tanh saturates.  ``mu`` and ``dmu`` are the mean of
    symbol 0 and its theta-derivative; the score is even in ``x``.  The
    logistic is the shared, overflow-safe :func:`qisac.physics.expit`.
    """
    return dmu / sigma2 * ((x - mu) - 2.0 * x * expit(-2.0 * mu / sigma2 * x))


def _q_interp(r: float) -> float:
    """Table of h, q(r) = h(r) * (1 + r^2) / r^2, at r in [0, _R_EDGE]: Horner on r's piece."""
    u = r * _H_SCALE
    i = min(int(u), _H_PIECES - 1)
    t = 2.0 * (u - i) - 1.0
    acc = 0.0
    for c in _H_TABLE[i]:
        acc = acc * t + c
    return acc


def _fisher(a: float, sigma2: float, phi: float) -> float:
    """Per-symbol Fisher information (A^2 sin^2(phi) / sigma^2) * h(A|cos(phi)|/sigma)."""
    s = a * math.sin(phi)
    c = a * math.cos(phi)
    ceiling = s * s / sigma2
    r2 = c * c / sigma2
    if r2 >= _R_EDGE * _R_EDGE:
        return ceiling
    return ceiling * r2 / (1.0 + r2) * _q_interp(math.sqrt(r2))


def _fisher_offsets(a: float, sigma2: float, phis: list[float]) -> np.ndarray:
    """:func:`_fisher` at each offset of ``phis`` in one array pass, bit for bit.

    sin and cos are ``math`` calls per offset; every later step is the scalar
    path's operation in its order, and numpy's elementwise +, -, *, / and
    sqrt round as Python's do.
    """
    s = a * np.array([math.sin(p) for p in phis])
    c = a * np.array([math.cos(p) for p in phis])
    ceiling = s * s / sigma2
    r2 = c * c / sigma2
    inside = r2 < _R_EDGE * _R_EDGE
    r2 = np.where(inside, r2, 0.0)
    u = np.sqrt(r2) * _H_SCALE
    i = np.minimum(u.astype(np.intp), _H_PIECES - 1)
    t = 2.0 * (u - i) - 1.0
    acc = np.zeros_like(t)
    for coef in _H_COLUMNS:
        acc = acc * t + coef[i]
    return np.where(inside, ceiling * r2 / (1.0 + r2) * acc, ceiling)


def fisher_symbol(params: ChannelParams, psi: float, n: int = 1) -> FisherReport:
    """Per-symbol Fisher information of theta at LO phase ``psi``.

    Evaluates the closed product F = (A^2 sin^2(phi) / sigma^2) * h(r),
    r = A*|cos(phi)|/sigma, on the shipped table of h (``_H_TABLE``), one
    Horner sum per call.  F is exactly 0 at phi = 0.
    """
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    f = _fisher(params.amplitude(), params.noise_var(), params.theta - psi)
    return FisherReport(
        per_symbol=f, block=n * f, n=n, quad_nodes=_H_NODES, quad_error_est=f * _H_RTOL
    )


def fisher_block(a: float, sigma2: float, phi: float, n: int) -> float:
    """Block Fisher information n * F at offset ``phi`` = theta - psi, from A and sigma^2.

    The ``block`` of :func:`fisher_symbol` bit for bit, for a channel whose
    ``amplitude()`` is ``a`` and ``noise_var()`` is ``sigma2``, without a
    ChannelParams or a report per call: the control loop reads it once per
    outer iteration from its run's constants.
    """
    return n * _fisher(a, sigma2, phi)


def fisher_symbol_mc(params: ChannelParams, psi: float, trials: int, seed: int) -> float:
    """Monte-Carlo estimate of the per-symbol Fisher information.

    Samples ``trials`` outcomes from the link and returns the empirical
    variance of the score d/dtheta log p(x).  Serves as an independent
    oracle for :func:`fisher_symbol`; standard error shrinks as
    1/sqrt(trials).
    """
    if trials < 10**4:
        raise ValueError(f"need at least 1e4 samples for a usable estimate, got {trials}")
    block = sample_block(params, psi, trials, seed)
    sigma2 = params.noise_var()
    mu = block_means(params, psi)
    dmu = block_mean_derivs(params, psi)

    return float(np.var(_mixture_score(block.x, mu[0], dmu[0], sigma2)))


def fisher_high_snr(params: ChannelParams, psi: float) -> float:
    """Well-separated-lobe form (A^2/sigma^2) * sin^2(theta - psi).

    Upper-bounds the exact mixture Fisher information at every offset.  It
    is the high-SNR limit only where the lobes separate, A*|cos(phi)|/sigma
    >> 1; within a notch of width ~sigma/A around phi = pi/2 it is not.  At
    phi = pi/2 the two symbol means coincide and the exact information is 0
    at any SNR, while this form takes its maximum A^2/sigma^2.
    """
    a = params.amplitude()
    return a * a / params.noise_var() * math.sin(params.theta - psi) ** 2


def offset_table(params: ChannelParams,
                 psis: list[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BER, Fisher information and its high-SNR envelope at each LO phase of ``psis``.

    Returns three arrays whose entries equal ``ber_theory(params, psi)``,
    ``fisher_symbol(params, psi).per_symbol`` and ``fisher_high_snr(params,
    psi)`` bit for bit: cos, sin, its square and erfc are the scalar
    functions' ``math`` calls per offset, and the array steps repeat their
    operations in their order.
    """
    a = params.amplitude()
    sigma2 = params.noise_var()
    phis = [params.theta - psi for psi in psis]
    x = a / math.sqrt(sigma2) * np.abs(np.array([math.cos(p) for p in phis]))
    ber = 0.5 * np.array([math.erfc(v) for v in (x / math.sqrt(2.0)).tolist()])
    high_snr = a * a / sigma2 * np.array([math.sin(p) ** 2 for p in phis])
    return ber, _fisher_offsets(a, sigma2, phis), high_snr


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximizer of a unimodal scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
    return 0.5 * (lo + hi)


@lru_cache(maxsize=256)
def _fisher_peak(a: float, sigma2: float) -> tuple[float, float]:
    """(argmax phi*, max F) of the per-symbol Fisher information on [0, pi/2].

    Coarse 64-point grid scan followed by golden-section refinement to 1e-6
    rad.  The phi -> -phi and phi -> pi - phi symmetries make [0, pi/2]
    sufficient.
    """
    grid = np.linspace(0.0, np.pi / 2, 64).tolist()
    i = int(np.argmax(_fisher_offsets(a, sigma2, grid)))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    phi_star = _golden_max(lambda p: _fisher(a, sigma2, p), lo, hi, 1e-6)
    return phi_star, _fisher(a, sigma2, phi_star)


def fisher_argmax(params: ChannelParams) -> tuple[float, float]:
    """Offset phi* maximizing per-symbol Fisher information, and the maximum."""
    return _fisher_peak(params.amplitude(), params.noise_var())


def fc_max(params: ChannelParams, n: int) -> float:
    """Maximum achievable block Fisher information N * max_phi F(phi)."""
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    return n * _fisher_peak(params.amplitude(), params.noise_var())[1]


def optimal_angles(theta_hat: float) -> tuple[float, float]:
    """Communication- and sensing-optimal LO phases for an estimate theta_hat.

    Communication wants zero offset, sensing wants a quarter-turn offset; the
    two targets always differ by pi/2.  Both are canonicalized to [0, pi) —
    the integer multiple-of-pi freedom is resolved by the caller's wrapping.
    """
    return canonical_phase(theta_hat), canonical_phase(theta_hat + np.pi / 2)


def pareto_known_theta(params: ChannelParams, n: int, gamma_min: float) -> ParetoPoint:
    """Best achievable BER when the block Fisher information must reach gamma_min.

    With theta known, the error rate is minimized by the smallest offset
    |phi| that still satisfies N*F(phi) >= gamma_min.  F = (A^2 sin^2(phi) /
    sigma^2) * h(A*cos(phi)/sigma) is non-decreasing on [0, argmax F] at
    every A/sigma, so the offset is the root of g = N*F - gamma_min there,
    located by an Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971)
    on a bracket [lo, hi] with the invariant: lo is infeasible, hi is
    feasible under the test N*F(phi) >= gamma_min, and the loop ends when
    no double lies strictly between them; hi is returned.  The values of g
    only choose the next point.  Two degenerate brackets get their own step:

    * g(hi) == 0 exactly (gamma_min = fc_max, where hi = argmax F is itself
      a root and every secant point equals hi): the next point bisects the
      exponent of the distance below h0, the hi at which g first read 0;
    * a secant point that is not strictly inside the bracket, or a bracket
      that has not halved over three steps, gives way to a fallback: a jump
      below hi by the geometric mean of its creep and the bracket when only
      hi moved over those steps (a root near the flat top of F); else
      bisection in the exponent (sqrt(lo*hi)) while hi > 4*lo, where lo = 0
      counts as half the bound sqrt(gamma_min*sigma^2/(N*A^2)) that
      F <= (A^2/sigma^2)*phi^2 puts under the root; else plain bisection.

    Even a subnormal gamma_min, whose offset lies hundreds of binary orders
    below argmax F, or gamma_min = fc_max then cost tens of evaluations.

    Raises:
        ValueError: gamma_min is negative or NaN.
        InfeasibleError: gamma_min exceeds the achievable maximum fc_max.
    """
    if not gamma_min >= 0:
        raise ValueError(f"gamma_min must be non-negative, got {gamma_min}")
    a = params.amplitude()
    sigma2 = params.noise_var()
    phi_peak, f_peak = _fisher_peak(a, sigma2)
    fcm = n * f_peak
    if gamma_min > fcm:
        raise InfeasibleError(
            f"required block Fisher information {gamma_min:.6g} exceeds "
            f"the achievable maximum {fcm:.6g}"
        )

    # gamma_min = 0 is met at phi = 0; otherwise g(0) = -gamma_min < 0 and
    # g(argmax F) = fc_max - gamma_min >= 0
    lo, hi = 0.0, (phi_peak if gamma_min > 0.0 else 0.0)
    g_lo, g_hi = -gamma_min, fcm - gamma_min
    floor = 0.5 * math.sqrt(gamma_min) * math.sqrt(sigma2 / n) / a
    moved = 0                       # +1 / -1: the last step moved hi / lo
    # the bracket before each of the last three steps, oldest first
    lo3 = lo2 = lo1 = -math.inf
    hi3 = hi2 = hi1 = math.inf
    h0 = hi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if g_hi == 0.0:
            x = h0 - math.sqrt(max(h0 - hi, math.ulp(h0))) * math.sqrt(h0 - lo)
            inside = lo < x < hi
        else:
            x = lo - g_lo * (hi - lo) / (g_hi - g_lo)
            inside = lo < x < hi and hi - lo <= 0.5 * (hi3 - lo3)
        if not inside:
            creep = (hi3 - lo3) - (hi - lo)
            base = lo if lo > 0.0 else floor
            if lo3 == lo and creep < 0.25 * (hi - lo):
                x = hi - math.sqrt(creep) * math.sqrt(hi - lo)
            elif hi > 4.0 * base:
                x = math.sqrt(base) * math.sqrt(hi)
            if not lo < x < hi:
                x = mid
        lo3, hi3, lo2, hi2, lo1, hi1 = lo2, hi2, lo1, hi1, lo, hi
        nf = n * _fisher(a, sigma2, x)
        if nf >= gamma_min:
            if moved == 1:
                g_lo *= 0.5
            if g_hi != 0.0:
                h0 = x
            hi, g_hi, moved = x, nf - gamma_min, 1
        else:
            if moved == -1:
                g_hi *= 0.5
            lo, g_lo, moved = x, nf - gamma_min, -1
        mid = 0.5 * (lo + hi)
    phi = hi

    sigma = math.sqrt(sigma2)
    return ParetoPoint(
        gamma_min=float(gamma_min),
        phi_star=float(phi),
        ber=q_function(a / sigma * math.cos(phi)),
    )
