package repro.ssb

/** The 13 SSB queries (§7.3), adapted to the SsbLite columns.
  *
  * Adaptation notes (documented in DESIGN.md): the aggregated measure is
  * the plain `lo_revenue` column (SSB's own denormalized revenue) rather
  * than `lo_extendedprice * lo_discount`, because Druid aggregates plain
  * fields; filters and group-bys follow the original flight patterns
  * (tight dimensional filters, increasing selectivity within each flight).
  */
final case class SsbQuery(id: String, sql: String)

object SsbQueries {

  val all: Seq[SsbQuery] = Seq(
    SsbQuery("Q1.1",
      """SELECT SUM(lo_revenue) AS revenue
        |FROM lineorder, date
        |WHERE lo_orderdate = d_datekey AND d_year = 1993
        |AND lo_discount >= 1 AND lo_discount <= 3 AND lo_quantity < 25""".stripMargin),
    SsbQuery("Q1.2",
      """SELECT SUM(lo_revenue) AS revenue
        |FROM lineorder, date
        |WHERE lo_orderdate = d_datekey AND d_yearmonthnum = 199401
        |AND lo_discount >= 4 AND lo_discount <= 6
        |AND lo_quantity >= 26 AND lo_quantity <= 35""".stripMargin),
    SsbQuery("Q1.3",
      """SELECT SUM(lo_revenue) AS revenue
        |FROM lineorder, date
        |WHERE lo_orderdate = d_datekey AND d_weeknuminyear = 6 AND d_year = 1994
        |AND lo_discount >= 5 AND lo_discount <= 7
        |AND lo_quantity >= 26 AND lo_quantity <= 35""".stripMargin),
    SsbQuery("Q2.1",
      """SELECT d_year, p_brand1, SUM(lo_revenue) AS revenue
        |FROM lineorder, date, part, supplier
        |WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey
        |AND lo_suppkey = s_suppkey
        |AND p_category = 'MFGR#12' AND s_region = 'AMERICA'
        |GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1""".stripMargin),
    SsbQuery("Q2.2",
      """SELECT d_year, p_brand1, SUM(lo_revenue) AS revenue
        |FROM lineorder, date, part, supplier
        |WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey
        |AND lo_suppkey = s_suppkey
        |AND p_brand1 IN ('Brand#221','Brand#222','Brand#223') AND s_region = 'ASIA'
        |GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1""".stripMargin),
    SsbQuery("Q2.3",
      """SELECT d_year, p_brand1, SUM(lo_revenue) AS revenue
        |FROM lineorder, date, part, supplier
        |WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey
        |AND lo_suppkey = s_suppkey
        |AND p_brand1 = 'Brand#339' AND s_region = 'EUROPE'
        |GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1""".stripMargin),
    SsbQuery("Q3.1",
      """SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS revenue
        |FROM lineorder, customer, supplier, date
        |WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
        |AND lo_orderdate = d_datekey
        |AND c_region = 'ASIA' AND s_region = 'ASIA'
        |AND d_year >= 1992 AND d_year <= 1997
        |GROUP BY c_nation, s_nation, d_year
        |ORDER BY d_year, revenue DESC""".stripMargin),
    SsbQuery("Q3.2",
      """SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
        |FROM lineorder, customer, supplier, date
        |WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
        |AND lo_orderdate = d_datekey
        |AND c_nation = 'UNITED STATES' AND s_nation = 'UNITED STATES'
        |AND d_year >= 1992 AND d_year <= 1997
        |GROUP BY c_city, s_city, d_year ORDER BY d_year, revenue DESC""".stripMargin),
    SsbQuery("Q3.3",
      """SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
        |FROM lineorder, customer, supplier, date
        |WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
        |AND lo_orderdate = d_datekey
        |AND c_city IN ('city_1','city_2') AND s_city IN ('city_1','city_2')
        |AND d_year >= 1992 AND d_year <= 1997
        |GROUP BY c_city, s_city, d_year ORDER BY d_year, revenue DESC""".stripMargin),
    SsbQuery("Q3.4",
      """SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
        |FROM lineorder, customer, supplier, date
        |WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
        |AND lo_orderdate = d_datekey
        |AND c_city IN ('city_1','city_2') AND s_city IN ('city_1','city_2')
        |AND d_yearmonthnum = 199712
        |GROUP BY c_city, s_city, d_year ORDER BY d_year, revenue DESC""".stripMargin),
    SsbQuery("Q4.1",
      """SELECT d_year, c_nation, SUM(lo_revenue) AS profit
        |FROM lineorder, date, customer, supplier, part
        |WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
        |AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
        |AND c_region = 'AMERICA' AND s_region = 'AMERICA'
        |AND p_mfgr IN ('MFGR#1','MFGR#2')
        |GROUP BY d_year, c_nation ORDER BY d_year, c_nation""".stripMargin),
    SsbQuery("Q4.2",
      """SELECT d_year, s_nation, p_category, SUM(lo_revenue) AS profit
        |FROM lineorder, date, customer, supplier, part
        |WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
        |AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
        |AND c_region = 'AMERICA' AND s_region = 'AMERICA'
        |AND d_year >= 1997 AND p_mfgr IN ('MFGR#1','MFGR#2')
        |GROUP BY d_year, s_nation, p_category
        |ORDER BY d_year, s_nation, p_category""".stripMargin),
    SsbQuery("Q4.3",
      """SELECT d_year, s_city, p_brand1, SUM(lo_revenue) AS profit
        |FROM lineorder, date, customer, supplier, part
        |WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
        |AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
        |AND s_nation = 'UNITED STATES' AND d_year >= 1997
        |AND p_category = 'MFGR#14'
        |GROUP BY d_year, s_city, p_brand1
        |ORDER BY d_year, s_city, p_brand1""".stripMargin),
  )
}
