"""Identity of the McKay data of every group up to the order cap.

Pins, per group, one sha256 over ``repr`` of the enumerated elements, the
conjugacy classes, the irrep dimensions, the character table and the
McKay adjacency, for cyclic:2..120, bd:2..30, 2T, 2O and 2I: the 151
groups that ``GroupSpec`` accepts.  The character values are floats, so
the hashes also pin their bits, and with them the irrep order that
``mckay verify`` prints its matching in.  The hashes were recorded before
the character table was lifted through discrete logarithms and split
along Galois orbits.  ``ALL`` hashes the lines ``f"{label} {hash}"`` of
the table, in order and concatenated, as a check on the table itself.

Reprint the table (only when McKay data is meant to change) with
``PYTHONPATH=src python tests/test_golden_mckay.py``.
"""

import hashlib

import pytest

from quiverstab.mckay import GroupSpec, build_mckay

GROUPS = ([f"cyclic:{m}" for m in range(2, 121)] + [f"bd:{m}" for m in range(2, 31)]
          + ["2T", "2O", "2I"])

ALL = "c2b9a89927e19cec622e882a274f607c0a432aacc5d6a44289672d3f644a0284"

GOLDEN = {
    'cyclic:2': 'eebfefb7fe05ff4c08d634ddef00e3990b6cb22da37312b763bbc6aff027bb5d',
    'cyclic:3': '70e7c9da630cfd24a9f7bbf0fb2fd003f12682af70ed762d66040e5271239b0a',
    'cyclic:4': '42a1134405f1a407774d8bd86509148b6d0d68fefded2310cc4b3e564fed231f',
    'cyclic:5': 'c64ba0d5f7b10370c9656bad82aab71648e234d718ed3e3e479f270283507392',
    'cyclic:6': 'a508d0e7e030947494146d3386728515ff9709e1aee07c396de0e9cd666b8fbe',
    'cyclic:7': '5310842a0b7e05157b5fd851af81c2e88f1b5e1f463abb79ed5b6edbe4f27bed',
    'cyclic:8': '0fa8b9db960f76627aaca0658090bdff3a17e5117502309bf481fbe80ce8688c',
    'cyclic:9': '8b4c175ac4e3aa5d1f7f4a22dc653063e0dca5bc8751af9b582ff1b832a62072',
    'cyclic:10': 'e3fc29c1d6882138564c501e4107eccda992ff589b9e8f03f93f0d507db34b3d',
    'cyclic:11': '479506d6e3805945fbdca07d193be66e20c820cd76f0bbfa332dc3c95bafc034',
    'cyclic:12': '0afc1d38a7233df4a532c95c8ec063bdc0a2a74971465fc0b9623d39cef1c495',
    'cyclic:13': '63e93ede64542996b34ccf2dc960dd1c7fd15e1aae3658b0fd70cd7c5efab44d',
    'cyclic:14': 'cda28b87244c0bc16ec524ad458614ec3e72e7cbf0ff89f18f848dc1a0619cfc',
    'cyclic:15': '17d582d73f4350d9b1128bd5d60063c1e8c38556df89b55f2d5fff1d8f19b6b7',
    'cyclic:16': '1bd5faa0feb1a27600f47b482c7b5a3d2c6cc413669aa678c8db670966a6df7c',
    'cyclic:17': '7398528034f2e6f0bef742ab4a4decf6484fe434ac36c1432e7c96dd332cac80',
    'cyclic:18': 'ccdd3587679209ae73e8116f5f3f5edd5b9c7d91d6232522af1df8db4a46f2d6',
    'cyclic:19': '3c29af935a0f97bef39417efa21464f9e57e33b050e54844a5d6fca2265f8154',
    'cyclic:20': '0510e7792101069ab9213c9c729d50009fa64233102513daa76f4ae447d013c1',
    'cyclic:21': '1148cd8398fe4a0db895c2101863fb02d2552412acc95baec38ad409fd1a2b9e',
    'cyclic:22': 'f389cd040e589fb1b9939caf22c8499b3a96b098734fe8991910b98fc89e6386',
    'cyclic:23': '73f9426305236c24425b8f15de01ebc3265e5da453a4a56ad1a6b3bcca7106c8',
    'cyclic:24': 'bb85a624134bda1d231f4b389e5316942bcf7933269f95ff7f2b850e910c4597',
    'cyclic:25': '3235570aadc7ae2f5f1f500d2b8c659c2c651326654e8e6f1fa60c0f55363646',
    'cyclic:26': '78ee63f6d6c1476d5abdbad53cc575cc7aed472a24be0dd01d30745ac9755984',
    'cyclic:27': '89e36dd9f71b01336c99ab7a3760ac5d6821eb36f81d60cf15c4d3ef84ed0a84',
    'cyclic:28': 'd1f1c80ce0373d466a375c3e9000b67d38d3a17b049102c2a955a3ca96ac0040',
    'cyclic:29': 'de665948b7aed5887e9b9e0ef281bda79c4a02ebab597333cd931c05c86d5ec8',
    'cyclic:30': '5921ce25650e95ee87a1c4518e799ea9ff1c66651f64442fd5eadd08f6ce1f4e',
    'cyclic:31': '94f4e4fc05091bf10e41ef8daed4118fc8d245ac5594c3cf4850fa44009d390f',
    'cyclic:32': '75ccde5665f22ed5d0040d0ddb9cda6b29adc475f0ed1fda208c9cdd0a4c6b66',
    'cyclic:33': '583af23d6dcc5c7c5cd262814725406f797316566e669290e6577b5d56567831',
    'cyclic:34': 'b1fe924b72ef3f8f22730d3c1cafc2b3f6a6a9e47312aaf0bb1ccdc0f9cfffce',
    'cyclic:35': '7370cb8d5015625a884ccc4d39f91fd4d6f035624693ad97b14a82f5ed7c4723',
    'cyclic:36': 'b0e26cb46e47a5bfb16ea3fea368e9ea6ee1b878fc66fea5f9e057c7da2d81e6',
    'cyclic:37': '4a592e6129b0e25edeb965f081245ce78e0c0291c67c6184d39d746f7388ff56',
    'cyclic:38': 'cccd0d58d441d24706f131b42e75d6cbca9afd9bf7bf49e5ea0783aa57d6c6fc',
    'cyclic:39': 'f283da85f79dc2a2687a1826282c38b40fd17ee3770798f296f441bfba59d2d8',
    'cyclic:40': 'df30d7bf1a5c55b6f9d00252fc58f876ebdd93e7d70beeb398f918f940f61171',
    'cyclic:41': 'c1d16423f297d1e1dab5391e0bff88866875607edaeeb6d5bcca103ec2e488d1',
    'cyclic:42': '12fa7353e612d53b2d48f0b3005309cd3489e12677511ef344e574a23dd515e0',
    'cyclic:43': '3a8741e945d66ae60ac67853b59078529736838ce8b431b923ac924302b654ce',
    'cyclic:44': '64004c7d834fb69969e7cea30e8216aae8726e7c38c23425d952a534771cafe7',
    'cyclic:45': 'e873771666925224c1616c9a4e68f42151e17a5a3eb34761302c9d9bc645ecf0',
    'cyclic:46': 'abe78382579a07e694b90d364310f8360c54c3c5325106cfd2b6e06de66ddf9e',
    'cyclic:47': 'e378516d470e3474dc39f33becb528795c852aea5e50bf128685589dccd43d50',
    'cyclic:48': '3d48adc1a26acbd499eed8332f6f41c802d3397068ef9a5805802c192fbb73f3',
    'cyclic:49': '96eaaa1e7b6a35d6e9ef0aafd5582123bbf209f3ac10476a3e8cf34e1cbb4395',
    'cyclic:50': 'd7bdb5c3a9b03519bee19b075cc4edf789ea27336ab8e0c305e3e4f3476ba5b8',
    'cyclic:51': 'c7206e80e6ddf405789d1a93bf3284e49c291d8bf7a807ac149e45006a9ec760',
    'cyclic:52': '3218e1ad47e578b48d54488452e7da8e09899e9e13a1b30058d64300fc02170a',
    'cyclic:53': '1431a465b57843a017662633f6b3a0eccebdc02855f14100ae8d3448c450cbde',
    'cyclic:54': 'b0c9e63ad1c71d84896a681f2701ea45eecfab095a78773b69e6b2f1327a6c5d',
    'cyclic:55': 'ceeb6b0e246132ce0db3c6a6a5aa562a8039bde708f63c6293092b81d0079d60',
    'cyclic:56': 'c2112afa68e2179df94bd169c0e270e1bc7f94f84ea8834d5d74e0fd19d89a08',
    'cyclic:57': '6a52b65bff08a9641eea57abf65ec61bc040ea0b8b3ff7c4c8b5d783a02e3411',
    'cyclic:58': '0609482a370c48c75cfeeafd594c01cf420b3d50b125c4038699904cf548a45a',
    'cyclic:59': 'f927a082dfe1b854a2daed6b68f874a6974b31790498f1c0e79fd90767a09200',
    'cyclic:60': 'c43120877808ca1a695af8add10260d0d389d8b4cf0f9f409e70c04d860b3808',
    'cyclic:61': 'bf2614e9e7e1e0ba7072519f5d872641802a34fe8b1ecbd25479ebb493182194',
    'cyclic:62': '2bc16bf707800dd0e8628a9a9c9ac30d8a77e6470cd1495cf8778e18c0e77f59',
    'cyclic:63': 'ce0f53fccc7eed6c2309860f2cc3283376b87cfd1444bfb0c9f6bb54846d7010',
    'cyclic:64': '24b3ef78a6e5d8dd3b59fa37d1c9dff7b368a31ee350d6dd723482197abcddd7',
    'cyclic:65': 'a20339ebf7d9b5efb5c923f44f2f2b13d1c298cd595083cee393c9d8f8f2fd32',
    'cyclic:66': 'dbab3bdcc7ebe722a43c761d8be8a3a6732bdd7ea851c448933058933b1090e3',
    'cyclic:67': '35233779d99e106d799bf916cf8dd94d5fc71f11e3a975a525124b1ef5b96eb0',
    'cyclic:68': '838a4fa324d2af96b8dfcaa19d09fbf70014c1713c59bc27777ab3615019f4d5',
    'cyclic:69': '7ca95b9bfc8d164afefb2f3944af8317957b783bb1eb41bc67a52a104bf8b25f',
    'cyclic:70': '2316673e1d7544209b65408fc93142878e697a3a2f24962634ac88132b3c5e34',
    'cyclic:71': '1ce4c8300a7bee5b0209a335d938f9f0f3cfda5a1f656ee7a9c27123c3758339',
    'cyclic:72': '9d7bf06853478d1a7b23d5f1e60318fc206c70fa9631d0947dd01ec0d883454b',
    'cyclic:73': 'd2ce74497ccb739adefaa4e5e718ed5b4506f5cc2e0161f8f83d05a49392f8ab',
    'cyclic:74': '50bb51304ab7835370b1689c45e1e11795b49413ff5c690f3ec8a9319bb88c27',
    'cyclic:75': 'ce8cbab3d51d49ff17dd4c254b14e0593f3103da285d9a9a2fa58375a3a2a588',
    'cyclic:76': '077f60cd094feacf8fcfd0fe4fe1155de69c60fd60aa80f163d05b39449c0be9',
    'cyclic:77': '540686daf74d466da8fd4c30acbaad11bf7d845c8dfffba6dcac73bb14532f82',
    'cyclic:78': 'c299e8577aec76a61583a6e2f12cfb8eae38956524df9e25a87519e251fa6b9e',
    'cyclic:79': 'e2c185b7af2de0c9e42235a25ff822311a53ee4bd22c865d71dc5994de2a4d5e',
    'cyclic:80': 'c300d07aecea53ba17e52a8717d256e7062db257ab78ade719e9f0fe3cabe217',
    'cyclic:81': '6f667b08ee7ba72a9d70623f7a1228006a1cf9e9a852f3a06de8331f24fd6841',
    'cyclic:82': '9698e5e956d8a143223e4c994bb799c21bf67e2a1760b0299b8acda595a3e11d',
    'cyclic:83': '52030c47066dde36408670a8302197a130335c65f147af57d268ce59a02fb553',
    'cyclic:84': 'e3afccd7b2a7d87c21585150bebc6b41d345d7f30c2ddf4c37e667aaa882ddbb',
    'cyclic:85': 'f569b4311c7c3679870d9f39e6af64f7417a683d6ddc645d5e8b3d1c13c4e478',
    'cyclic:86': '74469f959b87a6648f1ece1c8c30fd50f0ce5f0a50f1a9dd54d5397f3c188db5',
    'cyclic:87': '08fa45ecbb400db4708f4fc6027947e1c4546a01503851a4b817cff4bec85b55',
    'cyclic:88': '7c7cddcf1813020666e72628794531b66fafc0744544d05395ec6e959a425599',
    'cyclic:89': 'd998309e7a4d6dbdc2c8f828be8a2a200d7856952e76ad07917e0c3c2ac5995d',
    'cyclic:90': '9058ff4715865ce049849ec8d5873d013e66a8f7a43c0c450b68eb0080fe9588',
    'cyclic:91': '40ca8707675e4c1b6a443f4021a9134644d8780670c53c4aff631098ae0ec532',
    'cyclic:92': 'd15f840448344b79fb73887e610f1fd2ee6726085c230213840186d140c7153a',
    'cyclic:93': '4c25380541ebc6e2de13e8632355a87dffdeae2d009779636f427098af54e9ee',
    'cyclic:94': 'cd230ac8895f056b209eb87747e681f4fda527cfd292269544430b25ffb8ac7b',
    'cyclic:95': '063a64364499a55f7b4dd594b3158573794061eb64c2ba1e65febea0faf40e65',
    'cyclic:96': 'c3afaaa6add679c35c1b6249e191bec856362e8d565776b33ef6b2dccf239ba0',
    'cyclic:97': 'd6e9bcdad7f34130b789961d614c1e1fe4c603a051cf675d1ab88096f2d0b2d7',
    'cyclic:98': '985467f201e19c46d42392d9776bb5f266d9c8ea56965a9ef7e3cd1efcc8a84e',
    'cyclic:99': 'de8be908c3f05ea0d48346c198bb5a32d9d3e457ea26d779677047f4c2c8b1e5',
    'cyclic:100': 'e705b9a9409566f2cf66226478f7283e8a51bc1db0774ead307d44d51786a729',
    'cyclic:101': 'ff5e66d2e4255cbe6fb2d6606e9b6814318c62e6596fb343b3bd483bb858bde6',
    'cyclic:102': 'a932a6fab798fcca788dcf40b97468351e85c62f09a9f497e902639faef4b368',
    'cyclic:103': '0626a1747743125609395fa7c21ca7d260bda8e7d685845b473442c463d7bfc2',
    'cyclic:104': '77a0b8b8c5a2f4cf4cf5b72d77ab0d67052c6fd2c678adb864311171da66a2f0',
    'cyclic:105': '190e68dfc927ef64f5b8a2dab278d1aa068cf5ca3630ce9b7bfa3ff95b5f249b',
    'cyclic:106': 'c3be78906315645f14e4edbef3cc39df17f7b9a20342972967c968a665bc9afb',
    'cyclic:107': 'a72141d694fd2395423cdb9da1ba081e8c3f1dad48abdc49775f8a3f216132a1',
    'cyclic:108': '8cc5da6647f292c9f9e7bd5c6001ef407a073bdcefd210725ff9dd5efcdc60e6',
    'cyclic:109': '3133360c4ce4794228ef576e6febd3ab34bab1d6eb338662dfd8a8334bb2d03e',
    'cyclic:110': '21bc3b606dff84f18ac2ea4cfd450c0f0ea4d6d2f59192e867a46a395732a1f2',
    'cyclic:111': '3c0cfa2b2c48cc677445827dcd4aa75c44df596c7ac7fc22ad49a9c67c9f7971',
    'cyclic:112': 'aa9d58217dc0c42436446eae23ba3ee35eee34b7e5e18876dd34fbad39caac55',
    'cyclic:113': '0aa2f116f5a97a48322a7fa51302e5f9f99aad5b7c3ab5bc63c21311c6090332',
    'cyclic:114': '4d4891fd2600015974c11804f0be07be0515639b397121d297beb858b637d696',
    'cyclic:115': '937338bd538aa4bad7f6f462ce910862a9fb4ae65ad9498923a5f89cf9b05c16',
    'cyclic:116': 'c2b718db88f321010ba1e6feafe48bb3390284d75e6f739e51261da5bece4df6',
    'cyclic:117': 'bf08ab8b8273565dd0ae6ac431513f50d1644202be31a9b4b595b526f641c8b6',
    'cyclic:118': '385a96f26a0caedbb8376f7eb87259e163df535b986c1f8c13e106606edf6ad2',
    'cyclic:119': 'fa8f7357ea04e2fb336a41bf3975d0f7aba31365a31a9e149b0dfbec675adff1',
    'cyclic:120': 'fdd9f89600ee3807e661eeb87a57869ec848783bb7a1c198733872d369c3e7da',
    'bd:2': '3d9b3d976f0999ea06ea160fa22b5beddd11e50235932ca43e831c78fa7bc8dc',
    'bd:3': '00cf9740945dd7b4c53c8be0f119c1bf7d5225cc89ea2739200a221d5ebbe60d',
    'bd:4': '3bdae2ab3c6e3e98cd20a81e78bee781f57d07198c026945d749aca37031aece',
    'bd:5': 'cda97250157fe0186ed27cc4d152c838bcb469fe63c09426760d8d0dce993047',
    'bd:6': 'ab3ab61ca669dad09a050b90c8c8662dbb48dd8f4a80b1087ed95e0087763e4c',
    'bd:7': '5afd2db5bbc509712495ab3872c831b4c227941bd54b4567c1a00e29d9be932c',
    'bd:8': '6ef351b2dfcf668b0e32f9b6b038a0dfda20d7328e49382ca110212397b10b02',
    'bd:9': '70498381527991a63e5e097dddcfb5b9b48d280b3744084041311a153287e66a',
    'bd:10': 'fdbfc2441c87398e3da5a28762db1a783540bfa9582e5855830b7e51a990d8f8',
    'bd:11': '9dab5d26c70850a47069d19ba1e3e66686a4044ae13ba7642a1e3719d92dd564',
    'bd:12': '224085e305d170773f12dc4ddaa7d43e7aad5945494a59b5c33a818840421374',
    'bd:13': '39575dc787df528d257b937dcc4ad64a7348ab00206913ac5404e245fee30e97',
    'bd:14': '81aa0430e0fd21392a3cf7e0594196df184b9ee27a3142c1d815cbd176eee30f',
    'bd:15': '771d9495ba884831770d3e4b7e8fe66d91e3149353214d18bbe6c2d9554d01ab',
    'bd:16': 'ace873117c123f541e327b03f547a2545139161a65faa3700c0371aa4d380fba',
    'bd:17': '371712ac6d9a4934bcd6b752bb6b50a7d5d57d8addfa9f54fffa65c3d314235b',
    'bd:18': '6ae42e5684ecc7bed902548bfc0cb4fba08eab81fa897b2b1be464df4e050505',
    'bd:19': '14277ac6c0b4342f9d4690f7162a008dd437b306475a341fce48bb66cadc43aa',
    'bd:20': '6d4e7a3f0901d8ca6427d60cfff1039fe347168a847c031134a36efc7e8a84c2',
    'bd:21': '47797d92e1479fff3e60595c367d26049c254f362ad8b2e48b850781827c2e77',
    'bd:22': 'be019026c59e4145ec394cf910df890e76adcebb084a95c55f123c992f750d7a',
    'bd:23': '8388de5dc08e4995edda8be54f548abdd15871ff5c7b0cf05543139abee9cae3',
    'bd:24': 'a75db1eded997e1e1ae5e0e75ce37c9a9c4894683f2fb444f83683bfe66dbb53',
    'bd:25': 'b18f8c851b6edf74c812082b4332953e91bdfa63d2fe6cc3b87b2d9d0c35ffda',
    'bd:26': '2fbdc74a4def3e220424771cd5e9734d4073387135105a3799c97a0958c1c403',
    'bd:27': 'f13e6c4bcf9cbce9351d881f89bfa2f4425afce70ac98c66497ea5c5e869bd01',
    'bd:28': 'f51f9bd08eb81b9711e5f684416009f4452eb649df657743ce335169b93f3db0',
    'bd:29': 'b5bca9b5b5edf07fbe2b6fa9530aa7f43d328d1a646998e6286feae02826daea',
    'bd:30': '90d5af13e137b6c3c9e1088a8162a24f9d0e58970f5788cc6e0890679df65539',
    '2T': '10f2d598e0c5feff6e2585e9cc91a24f3fe819fe9296a23d60dd4db750e3306d',
    '2O': '991986fad7ee94e8e86352d975783cffae45e6b2728768253f580d8b16bccca6',
    '2I': '948e51197b1672a9273d2a683731596ad2eaf78aa95671fa42277811757e8c7a',
}


def mckay_hash(label) -> str:
    data = build_mckay(GroupSpec.parse(label))
    fields = (data.elements, data.conjugacy_classes, data.irrep_dims, data.characters,
              data.adjacency)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def table_hash(table) -> str:
    lines = "".join(f"{label} {table[label]}" for label in GROUPS)
    return hashlib.sha256(lines.encode()).hexdigest()


def test_every_group_is_pinned_once():
    assert list(GOLDEN) == GROUPS
    assert table_hash(GOLDEN) == ALL


@pytest.mark.parametrize("label", GROUPS)
def test_mckay_data_is_pinned(label):
    assert mckay_hash(label) == GOLDEN[label]


if __name__ == "__main__":
    table = {label: mckay_hash(label) for label in GROUPS}
    for label, value in table.items():
        print(f"    {label!r}: {value!r},")
    print(f"ALL = {table_hash(table)!r}")
